package exec

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSubmitterGoRuns(t *testing.T) {
	sub := New(4).Submitter()
	if sub.Cap() != 3 {
		t.Fatalf("Cap = %d, want workers-1 = 3", sub.Cap())
	}
	var wg sync.WaitGroup
	v := 0
	sub.Go(make(chan struct{}), &wg, func() { v = 42 })
	wg.Wait()
	if v != 42 {
		t.Fatalf("fn left %d, want 42", v)
	}
}

func TestSequentialPoolDisablesSubmission(t *testing.T) {
	for _, p := range []*Pool{nil, {}, New(1)} {
		if sub := p.Submitter(); sub != nil {
			t.Errorf("pool %+v: Submitter = %v, want nil", p, sub)
		}
	}
	for _, sub := range []*Submitter{nil, {}} {
		if sub.Cap() != 0 {
			t.Errorf("submitter %v has capacity %d", sub, sub.Cap())
		}
		var wg sync.WaitGroup
		sub.Go(make(chan struct{}), &wg, func() { t.Errorf("fn ran on submitter %v", sub) })
		wg.Wait()
	}
}

func TestStopDropsQueuedFn(t *testing.T) {
	sub := New(2).Submitter() // capacity 1
	stop := make(chan struct{})
	var wg sync.WaitGroup
	block := make(chan struct{})
	started := make(chan struct{})
	sub.Go(stop, &wg, func() { close(started); <-block })
	<-started // the single slot is now held
	var ran atomic.Bool
	sub.Go(stop, &wg, func() { ran.Store(true) })
	close(stop)
	close(block)
	wg.Wait()
	if ran.Load() {
		t.Fatal("fn queued when stop closed ran anyway")
	}
	// A submission after stop closed never runs either, even with the slot free.
	sub.Go(stop, &wg, func() { ran.Store(true) })
	wg.Wait()
	if ran.Load() {
		t.Fatal("fn submitted after stop closed ran")
	}
}

func TestWaitOutlastsStartedFn(t *testing.T) {
	sub := New(2).Submitter()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	started := make(chan struct{})
	release := make(chan struct{})
	v := 0
	sub.Go(stop, &wg, func() { close(started); <-release; v = 7 })
	<-started
	close(stop) // too late to drop it: the fn has started
	go close(release)
	wg.Wait()
	if v != 7 {
		t.Fatalf("wg.Wait returned before the started fn finished: v = %d", v)
	}
}

func TestSubmitterBoundsConcurrency(t *testing.T) {
	const capacity = 2
	sub := New(capacity + 1).Submitter()
	stop := make(chan struct{})
	var cur, max atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		sub.Go(stop, &wg, func() {
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond) // let the fns overlap
			cur.Add(-1)
		})
	}
	wg.Wait()
	if got := max.Load(); got > capacity {
		t.Fatalf("%d submissions ran concurrently, capacity %d", got, capacity)
	}
}
