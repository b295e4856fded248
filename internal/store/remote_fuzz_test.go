package store

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzRemoteDecode hammers the remote envelope decoder — the trust
// boundary between a hostile network and the build/run cache. Whatever
// bytes arrive (truncated, trailing garbage, mismatched checksums,
// foreign engines, wrong keys, oversized blobs), the decoder must never
// panic, and it may only return a payload when the envelope proves it was
// stored under exactly the requested key by exactly this engine with a
// matching SHA-256 — the property that turns every transport fault into a
// recompute instead of a wrong result.
func FuzzRemoteDecode(f *testing.F) {
	const engine = "flit-engine/fuzz"
	const key = "run\x00some/plan\x00key"

	valid := func(payload string) []byte {
		buf, err := json.Marshal(entry{Engine: engine, Key: key,
			Sum: sumHex([]byte(payload)), Data: json.RawMessage(payload)})
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}

	f.Add([]byte{})
	f.Add(valid(`{"key":"k","scalar":4609434218613702656}`))
	f.Add(valid(`{"v":1}`)[:20])                    // truncated mid-envelope
	f.Add(append(valid(`{"v":1}`), "{}garbage"...)) // trailing garbage
	jkey, _ := json.Marshal(key)
	f.Add([]byte(`{"engine":"` + engine + `","key":` + string(jkey) + `,"sum":"0000","data":{"v":1}}`)) // bad sum
	f.Add([]byte(`{"engine":"flit-engine/other","key":"x","sum":"","data":null}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`null`))
	f.Add([]byte(strings.Repeat(`{"a":`, 64) + "1" + strings.Repeat("}", 64))) // deep nesting
	f.Add(valid(strings.Repeat("7", 1<<16)))                                   // oversized-but-valid payload

	f.Fuzz(func(t *testing.T, raw []byte) {
		data, err := decodeEnvelope(raw, engine, key)
		if err != nil {
			return // a rejected envelope is always safe
		}
		// A decode the client would trust: the envelope's own declarations
		// must actually hold for the returned payload — re-verify from
		// scratch, independently of the decoder's internals.
		var e entry
		if jerr := json.Unmarshal(raw, &e); jerr != nil {
			t.Fatalf("decoder accepted bytes that do not even parse: %v", jerr)
		}
		if e.Engine != engine || e.Key != key {
			t.Fatalf("decoder accepted a foreign envelope: engine=%q key=%q", e.Engine, e.Key)
		}
		if e.Sum != sumHex(data) {
			t.Fatalf("decoder returned a payload whose SHA-256 disagrees with the declared sum")
		}
		if string(data) != string(e.Data) {
			t.Fatalf("decoder returned different bytes than the envelope carries")
		}
	})
}
