package mfem

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// mapCSRBuilder is the map-per-row builder csrBuilder replaced, kept as
// the reference it must match bit for bit.
type mapCSRBuilder struct {
	n    int
	rows []map[int]float64
}

func newMapCSRBuilder(n int) *mapCSRBuilder {
	b := &mapCSRBuilder{n: n, rows: make([]map[int]float64, n)}
	for i := range b.rows {
		b.rows[i] = make(map[int]float64, 9)
	}
	return b
}

//go:noinline
func (b *mapCSRBuilder) add(i, j int, v float64) { b.rows[i][j] += v }

func (b *mapCSRBuilder) applyDirichlet(rows []int) {
	for _, r := range rows {
		b.rows[r] = map[int]float64{r: 1}
	}
}

func (b *mapCSRBuilder) build() *CSR {
	c := &CSR{N: b.n, RowPtr: make([]int, b.n+1)}
	for i, row := range b.rows {
		c.RowPtr[i] = len(c.Col)
		for j := 0; j < b.n; j++ {
			if v, ok := row[j]; ok {
				c.Col = append(c.Col, j)
				c.Val = append(c.Val, v)
			}
		}
	}
	c.RowPtr[b.n] = len(c.Col)
	return c
}

// csrSpecials are the contributions whose accumulation is easiest to get
// wrong: signed zeros, NaN, infinities and the extremes of the range.
var csrSpecials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	1, -1, 0.1, math.SmallestNonzeroFloat64, -math.MaxFloat64, 1e300,
}

// replayCSR drives both builders through the operations encoded in data
// and returns their matrices. The first byte sizes the matrix (up to 24
// rows, so rows can exceed the 9 preallocated entries); then each
// operation is a kind byte, a row byte and, for adds, a column byte and a
// value: one of csrSpecials or 8 raw bytes of float64 bits.
func replayCSR(data []byte) (got, want *CSR) {
	if len(data) == 0 {
		return newCSRBuilder(0).build(), newMapCSRBuilder(0).build()
	}
	n := 1 + int(data[0])%24
	data = data[1:]
	b, ref := newCSRBuilder(n), newMapCSRBuilder(n)
	// When two NaNs meet, the sum keeps the payload of whichever operand
	// the compiler made the destination, a choice it makes per call site.
	// Both adds are called out of line here, so each compiles as it does
	// inlined into scatter, with v as the destination.
	add := b.add
	for len(data) >= 3 {
		kind, i, j := data[0], int(data[1])%n, int(data[2])%n
		data = data[3:]
		switch {
		case kind%8 == 0:
			rows := []int{i, j}
			applyDirichlet(b, rows)
			ref.applyDirichlet(rows)
			continue
		case kind%8 == 1 && len(data) >= 8:
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			ref.add(i, j, v)
			add(i, j, v)
		default:
			v := csrSpecials[int(kind)%len(csrSpecials)]
			ref.add(i, j, v)
			add(i, j, v)
		}
	}
	return b.build(), ref.build()
}

func sameCSR(t *testing.T, got, want *CSR) {
	t.Helper()
	if got.N != want.N || len(got.RowPtr) != len(want.RowPtr) ||
		len(got.Col) != len(want.Col) || len(got.Val) != len(want.Val) {
		t.Fatalf("shape differs: got N=%d rowptr=%d nnz=%d, want N=%d rowptr=%d nnz=%d",
			got.N, len(got.RowPtr), len(got.Col), want.N, len(want.RowPtr), len(want.Col))
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("RowPtr[%d] = %d, want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.Col {
		if got.Col[k] != want.Col[k] {
			t.Fatalf("Col[%d] = %d, want %d", k, got.Col[k], want.Col[k])
		}
		if g, w := math.Float64bits(got.Val[k]), math.Float64bits(want.Val[k]); g != w {
			t.Fatalf("Val[%d] bits %#x, want %#x", k, g, w)
		}
	}
}

// FuzzCSRBuilderMatchesMap: for any sequence of adds and Dirichlet resets,
// the slice-row builder produces the map builder's RowPtr and Col and
// bitwise its Val.
func FuzzCSRBuilderMatchesMap(f *testing.F) {
	negZero := math.Float64bits(math.Copysign(0, -1))
	raw := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	// A first -0 on a fresh entry, then -0 onto it: +0 either way.
	f.Add([]byte{3, 12, 0, 0, 12, 0, 0})
	f.Add(append([]byte{3, 1, 1, 2}, raw(negZero)...))
	// NaN with a payload, and Inf + -Inf.
	f.Add(append([]byte{2, 1, 0, 1}, raw(0x7ff8000000000abc)...))
	f.Add([]byte{2, 3, 1, 0, 4, 1, 0})
	// Out-of-order and repeated columns in one row, then a reset of rows
	// 0 and 4 and one more add.
	f.Add([]byte{8, 5, 0, 7, 5, 0, 2, 5, 0, 7, 5, 0, 0, 6, 0, 0, 5, 0, 3, 0, 0, 4, 5, 0, 1})
	// One row with all 20 columns: longer than the preallocated 9.
	long := []byte{19}
	for j := 19; j >= 0; j-- {
		long = append(long, 6, 4, byte(j), 7, 4, byte(j))
	}
	f.Add(long)
	rng := rand.New(rand.NewSource(1))
	for range 64 {
		data := make([]byte, 1+rng.Intn(600))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := replayCSR(data)
		sameCSR(t, got, want)
	})
}
