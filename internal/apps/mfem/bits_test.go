package mfem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/comp"
	"repro/internal/flit"
	"repro/internal/fp"
	"repro/internal/link"
	"repro/internal/prog"
)

// kernelBitsDigest is the SHA-256 of the 19 examples' results under the
// compilations kernelBitsComps lists, as TestKernelBitsPinned lays them
// out.
const kernelBitsDigest = "5effac7f2dc14b1b50085c638d2e7be9463879b08d64a12be60b2423e230b476"

// kernelBitsComps is the baseline, every 13th compilation of the matrix
// (each compiler, fused, flushing, reassociating and unsafe semantics
// among them) and an injection at every static instruction of each 2-D
// element kernel.
func kernelBitsComps() []comp.Compilation {
	comps := []comp.Compilation{comp.Baseline()}
	for i, c := range comp.Matrix() {
		if i%13 == 0 {
			comps = append(comps, c)
		}
	}
	for _, sym := range []*prog.Symbol{symDiffusionIntegratorElement2D, symMassIntegratorElement2D,
		symLinearFormAssemble2D, symIsoTransMap2D} {
		for k := range sym.FPOps {
			comps = append(comps, comp.Compilation{Compiler: comp.GCC, OptLevel: "-O2",
				Inject: &comp.InjectPlan{Symbol: sym.Name, Inj: fp.Injection{OpIndex: k, Op: fp.InjMul, Eps: 0.25}}})
		}
	}
	return comps
}

// TestKernelBitsPinned pins the bits every example returns under
// kernelBitsComps: a change to an element kernel that moves a result's
// last bit, or the order of the operations an injected Env counts (and so
// the instruction an injection perturbs), moves this digest.
func TestKernelBitsPinned(t *testing.T) {
	p := Program()
	h := sha256.New()
	var buf []byte
	for _, c := range kernelBitsComps() {
		ex, err := link.FullBuild(p, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range AllCases() {
			r, err := flit.RunAll(tc, ex)
			buf = append(buf[:0], tc.Name()+" under "+c.Key()...)
			if err != nil {
				buf = append(buf, err.Error()...)
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Scalar))
			for _, v := range r.Vec {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
			h.Write(buf)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != kernelBitsDigest {
		t.Errorf("example result digest %s, want %s", got, kernelBitsDigest)
	}
}
