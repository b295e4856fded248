package store

import (
	"io"
	"net/http"
)

// Handler returns the HTTP serving side of a Disk store: the other end of
// the Remote client's wire protocol, mounted by `flit store serve`. It is
// a thin, stateless shim over the Disk backend, so every durability
// property is inherited rather than re-implemented — an accepted PUT is
// its verified record appended as is to the served handle's segment (it
// survives a crash of the server process, not a power loss), a GET serves
// the stored record as is after the same verification a Disk read applies
// (a damaged record serves a 404, not a lie), and the engine fence the
// Disk manifest enforces at Open is re-checked per request by Fence, so a
// foreign client can tell a fence from a miss. The served handle sees
// only its own writes and what was on disk when it was opened.
func Handler(d *Disk) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(remotePathPrefix, func(w http.ResponseWriter, req *http.Request) {
		serveObject(d, w, req)
	})
	return mux
}

// serveObject handles one GET or PUT of /v1/objects/<base64url(key)>.
func serveObject(d *Disk, w http.ResponseWriter, req *http.Request) {
	if !Fence(w, req, d.Engine()) {
		return
	}
	key, ok := remoteKeyFromPath(req.URL.Path)
	if !ok {
		http.Error(w, "store: malformed object path", http.StatusBadRequest)
		return
	}
	switch req.Method {
	case http.MethodGet:
		rec, ok := d.record(key)
		if !ok {
			http.Error(w, "store: no such entry", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(rec)
	case http.MethodPut:
		rec, err := io.ReadAll(http.MaxBytesReader(w, req.Body, DefaultMaxBody))
		if err != nil {
			http.Error(w, "store: reading record: "+err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		// The upload must be one intact record of the key in the path: a
		// torn or bit-flipped upload is rejected, never stored. (The same
		// check the client applies to downloads, pointed the other way.)
		if _, ok := decodeRecord(rec, key); !ok {
			http.Error(w, "store: damaged record", http.StatusBadRequest)
			return
		}
		// Conditional PUT: a key the store already holds a valid entry for
		// is a no-op — entries are pure functions of their key, so the
		// bytes on disk are already the bytes being offered.
		if _, ok := d.Get(key); ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if err := d.appendRecord(key, rec); err != nil {
			http.Error(w, "store: persisting entry: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
	default:
		http.Error(w, "store: only GET and PUT", http.StatusMethodNotAllowed)
	}
}
