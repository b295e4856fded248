package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/flit"
)

// sweepRunBitsDigest is the SHA-256 of the run records a -j 1 sweep
// exports, as runBitsDigest lays them out.
const sweepRunBitsDigest = "22fd43b16a6361bcfba22d82486f64a4bf13419fc1da76c27ca6673261b349a0"

// TestSweepRunBitsPinned pins the bits of every run of a -j 1 sweep, not
// just the digest it renders: a change to the simulated arithmetic that
// moves a NaN's sign or payload, or a last ulp no table prints, changes
// this digest. ci.sh runs it under GOAMD64=v3 too, where the Go compiler
// may fuse an unconverted x*y+z.
func TestSweepRunBitsPinned(t *testing.T) {
	eng := NewEngine(1)
	if _, err := eng.SweepDigest(); err != nil {
		t.Fatal(err)
	}
	art := eng.ExportArtifact(nil)
	if got := runBitsDigest(art); got != sweepRunBitsDigest {
		t.Errorf("-j 1 sweep: %d run records digest to %s, want %s", len(art.Runs), got, sweepRunBitsDigest)
	}
}

// runBitsDigest hashes an artifact's run records in key order: each key,
// then its value's flags, scalar bits, vector length and bits, and error
// text.
func runBitsDigest(art *flit.Artifact) string {
	h := sha256.New()
	var buf []byte
	for _, r := range art.Runs {
		buf = append(buf[:0], r.Key...)
		buf = append(buf, 0)
		var flags byte
		if r.IsVec {
			flags |= 1
		}
		if r.Segfault {
			flags |= 2
		}
		buf = append(buf, flags)
		buf = binary.LittleEndian.AppendUint64(buf, r.Scalar)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(r.Vec)))
		for _, v := range r.Vec {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(r.Err)))
		buf = append(buf, r.Err...)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}
