package fp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"
)

// opsBitsDigest is the SHA-256 of every readsOps operation's result bits
// and recorded reads on every opInputs pair under every allSemantics,
// run by an Env without injection, one whose injection never fires and
// one whose injection fires (see TestOpsBitsPinned).
const opsBitsDigest = "e64ba2e5364acc9f54ef38a0c709991e8183ca9e66f6a3c38071758471dc100b"

// TestOpsBitsPinned pins the bits the operations return, NaN signs and
// payloads included, on the reference paths and the fast ones alike: a
// change that makes the compiler order a reference operation's operands
// differently, or a fast path that returns a NaN of its own, moves this
// digest. Under the race detector the parent's reference reductions
// already pick other NaNs, so there the test skips.
func TestOpsBitsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the digest pins an uninstrumented build's code")
	}
	envs := []func(Semantics) *Env{
		NewEnv,
		func(sem Semantics) *Env { return NewInjectedEnv(sem, 1, Injection{OpIndex: 1, Op: InjAdd, Eps: 1}) },
		func(sem Semantics) *Env { return NewInjectedEnv(sem, 3, Injection{OpIndex: 1, Op: InjMul, Eps: 0.5}) },
	}
	h := sha256.New()
	var buf []byte
	for _, op := range readsOps {
		for _, sem := range allSemantics() {
			for _, in := range opInputs {
				buf = append(buf[:0], op.name...)
				buf = binary.LittleEndian.AppendUint16(buf, sem.Pack())
				for _, env := range envs {
					e := env(sem)
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(op.f(e, in[0], in[1])))
					buf = binary.LittleEndian.AppendUint16(buf, uint16(e.Reads()))
				}
				h.Write(buf)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != opsBitsDigest {
		t.Errorf("operation bits digest %s, want %s", got, opsBitsDigest)
	}
}

// FuzzKernelsMatchReference runs one script of every scalar operation and
// Sum, Dot, Norm2, Axpy and Scale on two Envs under the same semantics:
// NewEnv's, which takes the fast paths where its semantics allow, and an
// injected one whose injection never fires (static instruction 1 of a
// function with one), which always runs the reference code. Every result
// and every Reads() must agree bit for bit. flags switches FMA, extended
// precision, flush-to-zero, unsafe and approximate math; width picks
// 1–17 lanes; raw holds the operands, eight bytes each.
func FuzzKernelsMatchReference(f *testing.F) {
	special := []uint64{
		0x0000000000000001, 0x8000000000000003, 0x000fffffffffffff, // subnormals
		0x0000000000000000, 0x8000000000000000, // ±0
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000005, 0xfff4000000000123, // NaNs
		0x3ff0000000000000, 0xbfe8000000000000, 0x4340000000000000, 0x3ca0000000000000, // 1, -0.75, 2^53, 2^-53
	}
	var raw []byte
	for i := range special {
		for _, j := range []int{i, (i + 7) % len(special), (i + 9) % len(special)} {
			raw = binary.LittleEndian.AppendUint64(raw, special[j])
		}
	}
	// Triples a, b, -a*b with an inexact product, on which a fused
	// MulAdd returns the product's rounding error and an unfused one 0.
	for _, ab := range [][2]float64{{0.1, 0.1}, {1.0 / 3, math.Pi}, {1 + 0x1p-29, 1 - 0x1p-29}} {
		for _, x := range []float64{ab[0], ab[1], -ab[0] * ab[1]} {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x))
		}
	}
	for flags := range 32 {
		for _, w := range []byte{0, 3, 15, 16} {
			f.Add(byte(flags), w, raw)
		}
	}
	f.Fuzz(func(t *testing.T, flags, width byte, raw []byte) {
		sem := Semantics{
			FuseFMA: flags&1 != 0, ExtendedPrecision: flags&2 != 0, FlushSubnormals: flags&4 != 0,
			UnsafeMath: flags&8 != 0, ApproxMath: flags&16 != 0, ReassocWidth: 1 + width%17,
		}
		v := make([]float64, 0, 64)
		for ; len(raw) >= 8 && len(v) < cap(v); raw = raw[8:] {
			v = append(v, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		}
		for len(v) < 3 {
			v = append(v, 1)
		}
		fast := NewEnv(sem)
		ref := NewInjectedEnv(sem, 1, Injection{OpIndex: 1, Op: InjAdd, Eps: 1})
		check := func(what string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s under %v: %#x, reference %#x", what, sem, math.Float64bits(got), math.Float64bits(want))
			}
			if fast.Reads() != ref.Reads() {
				t.Fatalf("%s under %v: reads %#x, reference %#x", what, sem, fast.Reads(), ref.Reads())
			}
		}
		type scalar struct {
			name string
			f    func(e *Env, a, b, c float64) float64
		}
		scalars := []scalar{
			{"Add", func(e *Env, a, b, _ float64) float64 { return e.Add(a, b) }},
			{"Sub", func(e *Env, a, b, _ float64) float64 { return e.Sub(a, b) }},
			{"Mul", func(e *Env, a, b, _ float64) float64 { return e.Mul(a, b) }},
			{"Div", func(e *Env, a, b, _ float64) float64 { return e.Div(a, b) }},
			{"MulAdd", func(e *Env, a, b, c float64) float64 { return e.MulAdd(a, b, c) }},
			{"MulSub", func(e *Env, a, b, c float64) float64 { return e.MulSub(a, b, c) }},
			{"Sum3", func(e *Env, a, b, c float64) float64 { return e.Sum3(a, b, c) }},
			{"Neg", func(e *Env, a, _, _ float64) float64 { return e.Neg(a) }},
			{"Abs", func(e *Env, a, _, _ float64) float64 { return e.Abs(a) }},
			{"Sqrt", func(e *Env, a, _, _ float64) float64 { return e.Sqrt(a) }},
			{"Exp", func(e *Env, a, _, _ float64) float64 { return e.Exp(a) }},
			{"Log", func(e *Env, a, _, _ float64) float64 { return e.Log(a) }},
			{"Pow", func(e *Env, a, b, _ float64) float64 { return e.Pow(a, b) }},
		}
		// Every operand triple, each operation twice: the first call of
		// Div or MulAdd arms the fast path the later ones take.
		for i := range v {
			a, b, c := v[i], v[(i+1)%len(v)], v[(i+2)%len(v)]
			for _, op := range scalars {
				for range 2 {
					check(op.name, op.f(fast, a, b, c), op.f(ref, a, b, c))
				}
			}
		}
		for k := range min(len(v), 4) {
			check("Sum", fast.Sum(v[k:]), ref.Sum(v[k:]))
			check("Dot", fast.Dot(v, v[k:]), ref.Dot(v, v[k:]))
			check("Norm2", fast.Norm2(v[k:]), ref.Norm2(v[k:]))
		}
		for _, alpha := range []float64{v[0], v[len(v)-1]} {
			yf, yr := slices.Clone(v[1:]), slices.Clone(v[1:])
			fast.Axpy(alpha, v, yf)
			ref.Axpy(alpha, v, yr)
			for i := range yf {
				check("Axpy", yf[i], yr[i])
			}
			fast.Scale(alpha, yf)
			ref.Scale(alpha, yr)
			for i := range yf {
				check("Scale", yf[i], yr[i])
			}
		}
	})
}
