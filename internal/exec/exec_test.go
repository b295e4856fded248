package exec

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestPoolWorkers(t *testing.T) {
	var nilPool *Pool
	if nilPool.Workers() != 1 {
		t.Errorf("nil pool workers = %d, want 1", nilPool.Workers())
	}
	if (&Pool{}).Workers() != 1 {
		t.Errorf("zero pool workers = %d, want 1", (&Pool{}).Workers())
	}
	if New(1).Workers() != 1 {
		t.Errorf("New(1) workers = %d, want 1", New(1).Workers())
	}
	if New(4).Workers() != 4 {
		t.Errorf("New(4) workers = %d, want 4", New(4).Workers())
	}
	if New(0).Workers() < 1 {
		t.Errorf("New(0) workers = %d, want >= 1", New(0).Workers())
	}
}

func TestForEachRunsAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		const n = 100
		var seen [n]atomic.Int32
		err := p.ForEach(n, func(i int) error {
			seen[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := New(workers)
	var cur, max atomic.Int32
	err := p.ForEach(64, func(i int) error {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := max.Load(); got > workers {
		t.Errorf("observed %d concurrent evaluations, bound is %d", got, workers)
	}
}

func TestForEachDeterministicError(t *testing.T) {
	// The lowest failing index must win regardless of worker count —
	// matching what a sequential loop would have stopped on.
	for _, workers := range []int{1, 4} {
		p := New(workers)
		err := p.ForEach(50, func(i int) error {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return fmt.Errorf("failed at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "failed at 3" {
			t.Errorf("workers=%d: err = %v, want failure of index 3", workers, err)
		}
	}
}

func TestMapOrdersResultsBySubmission(t *testing.T) {
	for _, workers := range []int{1, 5} {
		p := New(workers)
		out, err := Map(p, 40, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapErrorReturnsNil(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(New(4), 10, func(i int) (int, error) {
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if out != nil {
		t.Fatalf("out = %v, want nil on error", out)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache[int]()
	var computed atomic.Int32
	p := New(8)
	err := p.ForEach(64, func(i int) error {
		v, err := c.Do("shared", func() (int, error) {
			computed.Add(1)
			return 42, nil
		})
		if err != nil || v != 42 {
			return fmt.Errorf("got %d, %v", v, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := computed.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d keys, want 1", c.Len())
	}
	if m := c.Metrics(); m.Misses != 1 || m.Hits != 63 {
		t.Errorf("metrics = %d hits / %d misses, want 63/1", m.Hits, m.Misses)
	}
}

func TestCacheMemoizesErrors(t *testing.T) {
	c := NewCache[int]()
	boom := errors.New("deterministic failure")
	calls := 0
	for i := 0; i < 3; i++ {
		_, err := c.Do("k", func() (int, error) {
			calls++
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1 (errors are memoized)", calls)
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *Cache[string]
	calls := 0
	for i := 0; i < 2; i++ {
		v, err := c.Do("k", func() (string, error) {
			calls++
			return "v", nil
		})
		if err != nil || v != "v" {
			t.Fatal(v, err)
		}
	}
	if calls != 2 {
		t.Errorf("nil cache memoized (calls = %d)", calls)
	}
	if c.Len() != 0 {
		t.Error("nil cache Len != 0")
	}
}

func TestCacheDistinctKeys(t *testing.T) {
	c := NewCache[int]()
	out, err := Map(New(6), 30, func(i int) (int, error) {
		return c.Do(fmt.Sprintf("key-%d", i%10), func() (int, error) {
			return i % 10, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i%10 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i%10)
		}
	}
	if c.Len() != 10 {
		t.Errorf("cache holds %d keys, want 10", c.Len())
	}
}

// TestCacheSeedAndEach: seeded entries behave like computed ones (served
// without recomputation, visible to Each), and Seed refuses to overwrite.
func TestCacheSeedAndEach(t *testing.T) {
	c := NewCache[int]()
	if !c.Seed("a", 10, nil) {
		t.Fatal("Seed(a) rejected on empty cache")
	}
	if c.Seed("a", 99, nil) {
		t.Fatal("Seed(a) overwrote an existing entry")
	}
	v, err := c.Do("a", func() (int, error) {
		t.Fatal("seeded key recomputed")
		return 0, nil
	})
	if err != nil || v != 10 {
		t.Fatalf("Do(seeded a) = %d, %v", v, err)
	}
	for i := 0; i < 5; i++ {
		c.Seed(fmt.Sprintf("k%d", i), i, nil)
	}
	if got := c.Len(); got != 6 {
		t.Errorf("Len = %d, want 6", got)
	}
	seen := map[string]int{}
	c.Each(func(key string, val int, err error) { seen[key] = val })
	if len(seen) != 6 || seen["a"] != 10 || seen["k4"] != 4 {
		t.Errorf("Each saw %v, want a=10 and k0..k4", seen)
	}
	// Nil-cache safety for the seeding surface.
	var nc *Cache[int]
	if nc.Seed("x", 1, nil) {
		t.Error("nil cache accepted a seed")
	}
	nc.Each(func(string, int, error) { t.Error("nil cache has entries") })
	if m := nc.Metrics(); m != (Metrics{}) {
		t.Errorf("nil cache metrics = %+v", m)
	}
}
