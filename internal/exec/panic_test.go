package exec

import (
	"errors"
	"runtime"
	"testing"
)

// TestDoPanicGivesWaitersSentinelError: a computation that panics must
// hand every waiter blocked on its entry ErrComputePanicked — not a
// silently-memoized zero value with a nil error — while the panic itself
// still propagates to the caller that ran fn, and the key stays
// recomputable afterwards.
func TestDoPanicGivesWaitersSentinelError(t *testing.T) {
	c := NewCache[int]()
	started := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do("k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started

	type res struct {
		v   int
		err error
	}
	waited := make(chan res, 1)
	go func() {
		v, err := c.Do("k", func() (int, error) {
			t.Error("waiter recomputed while the entry was in flight")
			return -1, nil
		})
		waited <- res{v, err}
	}()
	// The waiter increments the hit counter before blocking on the entry;
	// only then may the computation be allowed to panic.
	for {
		if c.Metrics().Hits >= 1 {
			break
		}
		runtime.Gosched()
	}
	close(release)

	if p := <-panicked; p != "boom" {
		t.Fatalf("panic did not propagate to the computing caller: %v", p)
	}
	got := <-waited
	if !errors.Is(got.err, ErrComputePanicked) {
		t.Fatalf("waiter got (%d, %v), want ErrComputePanicked", got.v, got.err)
	}

	// The key was dropped, not poisoned: the next Do computes fresh.
	v, err := c.Do("k", func() (int, error) { return 7, nil })
	if v != 7 || err != nil {
		t.Fatalf("recompute after panic = (%d, %v), want (7, nil)", v, err)
	}
	// And the panicked entry never leaked into the completed set.
	count := 0
	c.Each(func(key string, v int, err error) { count++ })
	if count != 1 {
		t.Fatalf("completed entries = %d, want 1 (the recomputed one)", count)
	}
}
