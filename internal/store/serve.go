package store

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Handler returns the HTTP serving side of a Disk store: the other end of
// the Remote client's wire protocol, mounted by `flit store serve`. It is
// a thin, stateless shim over the Disk backend, so every durability
// property is inherited rather than re-implemented — an accepted PUT is
// one record appended to the served handle's segment (it survives a crash
// of the server process, not a power loss), reads go through the same
// record verification (a damaged record serves a 404, not a lie), and
// the engine fence the Disk manifest enforces at Open is re-checked per
// request against the client's X-Flit-Engine header, answered with
// StatusEngineMismatch so a foreign client can tell a fence from a miss.
// The served handle sees only its own writes and what was on disk when it
// was opened.
func Handler(d *Disk) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(remotePathPrefix, func(w http.ResponseWriter, req *http.Request) {
		serveObject(d, w, req)
	})
	return mux
}

// serveObject handles one GET or PUT of /v1/objects/<base64url(key)>.
func serveObject(d *Disk, w http.ResponseWriter, req *http.Request) {
	w.Header().Set(engineHeader, d.Engine())
	key, ok := remoteKeyFromPath(req.URL.Path)
	if !ok {
		http.Error(w, "store: malformed object path", http.StatusBadRequest)
		return
	}
	if got := req.Header.Get(engineHeader); got != d.Engine() {
		http.Error(w, fmt.Sprintf("store: this store is fenced to engine %q, request is from %q: results are not interchangeable",
			d.Engine(), got), StatusEngineMismatch)
		return
	}
	switch req.Method {
	case http.MethodGet:
		data, ok := d.Get(key)
		if !ok {
			http.Error(w, "store: no such entry", http.StatusNotFound)
			return
		}
		buf, err := json.Marshal(entry{Engine: d.Engine(), Key: key, Sum: sumHex(data), Data: json.RawMessage(data)})
		if err != nil {
			http.Error(w, "store: encoding envelope: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(sumHeader, sumHex(data))
		w.Write(buf)
	case http.MethodPut:
		body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, DefaultMaxBody))
		if err != nil {
			http.Error(w, "store: reading payload: "+err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		// The declared checksum must match what actually arrived: a torn or
		// bit-flipped upload is rejected, never stored. (The same check the
		// client applies to downloads, pointed the other way.)
		if sum := req.Header.Get(sumHeader); sum != sumHex(body) {
			http.Error(w, "store: payload checksum mismatch", http.StatusBadRequest)
			return
		}
		// Conditional PUT: a key the store already holds a valid entry for
		// is a no-op — entries are pure functions of their key, so the
		// bytes on disk are already the bytes being offered.
		if _, ok := d.Get(key); ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if err := d.Put(key, body); err != nil {
			http.Error(w, "store: persisting entry: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
	default:
		http.Error(w, "store: only GET and PUT", http.StatusMethodNotAllowed)
	}
}
