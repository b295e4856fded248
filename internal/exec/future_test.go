package exec

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestSubmitRunsAndWait(t *testing.T) {
	sub := New(4).Submitter()
	if sub.Cap() != 3 {
		t.Fatalf("Cap = %d, want workers-1 = 3", sub.Cap())
	}
	v := 0
	f := Submit(sub, func() { v = 42 })
	if !f.Wait() || v != 42 {
		t.Fatalf("Wait ran fn to %d, want 42", v)
	}
}

func TestSequentialPoolDisablesSubmission(t *testing.T) {
	for _, p := range []*Pool{nil, {}, New(1)} {
		if sub := p.Submitter(); sub != nil {
			t.Errorf("pool %+v: Submitter = %v, want nil", p, sub)
		}
	}
	var nilSub *Submitter
	if nilSub.Cap() != 0 {
		t.Error("nil submitter has capacity")
	}
	f := Submit(nilSub, func() { t.Error("fn ran on nil submitter") })
	if f != nil {
		t.Fatal("Submit on nil submitter returned a future")
	}
	// A nil future behaves as already-cancelled.
	if f.Wait() {
		t.Error("nil future Wait reported a run")
	}
	if !f.Cancel() {
		t.Error("nil future Cancel = false")
	}
}

func TestCancelQueuedFutureNeverRuns(t *testing.T) {
	sub := New(2).Submitter() // capacity 1
	block := make(chan struct{})
	started := make(chan struct{})
	slow := Submit(sub, func() { close(started); <-block })
	<-started // the single slot is now held
	ran := false
	queued := Submit(sub, func() { ran = true })
	if !queued.Cancel() {
		t.Fatal("Cancel on a queued future = false")
	}
	if !queued.Cancel() {
		t.Error("Cancel not idempotent")
	}
	if queued.Wait() {
		t.Error("cancelled future Wait reported a run")
	}
	close(block)
	if !slow.Wait() {
		t.Error("running future did not report its run")
	}
	if ran {
		t.Error("cancelled future executed anyway")
	}
}

func TestCancelAfterStartKeepsResult(t *testing.T) {
	sub := New(2).Submitter()
	started := make(chan struct{})
	release := make(chan struct{})
	v := 0
	f := Submit(sub, func() { close(started); <-release; v = 7 })
	<-started
	if f.Cancel() {
		t.Fatal("Cancel claimed to prevent a running future")
	}
	close(release)
	if !f.Wait() || v != 7 {
		t.Fatalf("Wait after failed Cancel: fn left %d, want 7", v)
	}
}

func TestSubmitterBoundsConcurrency(t *testing.T) {
	const capacity = 2
	sub := New(capacity + 1).Submitter()
	var cur, max atomic.Int64
	var wg sync.WaitGroup
	futs := make([]*Future, 0, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		futs = append(futs, Submit(sub, func() {
			defer wg.Done()
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			cur.Add(-1)
		}))
	}
	wg.Wait()
	for _, f := range futs {
		f.Wait()
	}
	if got := max.Load(); got > capacity {
		t.Fatalf("%d submissions ran concurrently, capacity %d", got, capacity)
	}
}
