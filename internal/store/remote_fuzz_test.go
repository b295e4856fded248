package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"
)

// FuzzRemoteDecode hammers the record decoder a remote Get trusts — the
// boundary between a hostile network and the build/run cache. Whatever
// bytes arrive (truncated headers or payloads, trailing bytes, flipped
// payloads, another key's record, lengths past the body, an old build's
// JSON envelope), the decoder must never panic, and it may only return a
// payload when the record proves it frames exactly the requested key and
// a payload matching its SHA-256 — the property that turns every
// transport fault into a recompute instead of a wrong result.
func FuzzRemoteDecode(f *testing.F) {
	const key = "run\x00some/plan\x00key"
	valid := encodeRecord(key, []byte(`{"key":"k","scalar":4609434218613702656}`))

	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:recordHeaderLen-5])               // truncated header
	f.Add(valid[:len(valid)-3])                    // truncated payload
	f.Add(append(bytes.Clone(valid), "{}junk"...)) // trailing bytes
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-2] ^= 0x40 // flipped payload under the honest sum
	f.Add(flipped)
	f.Add(encodeRecord("run\x00another\x00key", []byte(`{"v":1}`))) // wrong key
	past := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(past[4:], 1<<31) // lengths past the body
	f.Add(past)
	f.Add([]byte(`{"engine":"flit-engine/fuzz","key":"run\u0000some/plan\u0000key","sum":"00","data":{"v":1}}`)) // old JSON envelope
	f.Add(encodeRecord(key, []byte(strings.Repeat("7", 1<<16))))                                                 // large but valid

	f.Fuzz(func(t *testing.T, raw []byte) {
		data, ok := decodeRecord(raw, key)
		if !ok {
			return // a rejected record is always safe
		}
		// A decode the client would trust: the record's own declarations
		// must actually hold for the returned payload — re-verify from
		// scratch, independently of the decoder's internals.
		if len(raw) != recordHeaderLen+len(key)+len(data) {
			t.Fatalf("decoder accepted %d bytes framing a %d-byte key and a %d-byte payload", len(raw), len(key), len(data))
		}
		if int(binary.LittleEndian.Uint32(raw[0:])) != len(key) || int(binary.LittleEndian.Uint32(raw[4:])) != len(data) {
			t.Fatal("decoder accepted a record whose lengths disagree with what it returned")
		}
		if string(raw[recordHeaderLen:recordHeaderLen+len(key)]) != key {
			t.Fatal("decoder accepted another key's record")
		}
		sum := sha256.Sum256(append(append(bytes.Clone(raw[:8]), key...), data...))
		if !bytes.Equal(sum[:], raw[8:recordHeaderLen]) {
			t.Fatal("decoder returned a payload whose SHA-256 disagrees with the declared sum")
		}
		if !bytes.Equal(data, raw[recordHeaderLen+len(key):]) {
			t.Fatal("decoder returned different bytes than the record carries")
		}
	})
}
