package exec

import "sync/atomic"

// Submitter admits speculative background evaluations onto a pool. It is a
// second, separately bounded concurrency level: a pool of j workers hands
// out a submitter of capacity j-1, so a driver whose committed work already
// saturates the pool can speculate ahead without ever exceeding 2j-1
// concurrent evaluations. A nil Submitter is valid and admits nothing —
// Submit returns a nil Future — which is how a sequential pool (j = 1)
// disables speculation entirely and reproduces the paper's one-at-a-time
// execution order.
type Submitter struct {
	sem chan struct{}
}

// Submitter returns the pool's speculative admission gate, capacity
// Workers()-1. A sequential (or nil) pool returns nil: with one worker the
// committed trace is the only execution stream.
func (p *Pool) Submitter() *Submitter {
	w := p.Workers() - 1
	if w < 1 {
		return nil
	}
	return &Submitter{sem: make(chan struct{}, w)}
}

// Cap reports how many submitted evaluations may run concurrently.
func (s *Submitter) Cap() int {
	if s == nil {
		return 0
	}
	return cap(s.sem)
}

// Future state machine: Submit queues at pending; the worker goroutine
// moves pending→running→done; Cancel moves pending→cancelled. done and
// cancelled are terminal, and f.done is closed exactly once on reaching
// either.
const (
	futPending int32 = iota
	futRunning
	futDone
	futCancelled
)

// Future is the handle of one submitted evaluation. The zero value is not
// useful; a nil *Future (from Submit on a nil Submitter) is valid and
// behaves as already-cancelled.
type Future struct {
	state atomic.Int32
	done  chan struct{}
}

// Submit schedules fn to run as soon as the submitter has a free slot and
// returns immediately. fn must be safe to run concurrently with the
// caller, and delivers its own result. On a nil submitter nothing is
// scheduled and the result is nil.
func Submit(s *Submitter, fn func()) *Future {
	if s == nil {
		return nil
	}
	f := &Future{done: make(chan struct{})}
	go func() {
		select {
		case s.sem <- struct{}{}:
		case <-f.done:
			return // cancelled while queued: never acquire a slot
		}
		defer func() { <-s.sem }()
		if !f.state.CompareAndSwap(futPending, futRunning) {
			return // cancelled between the acquire and the swap
		}
		fn()
		f.state.Store(futDone)
		close(f.done)
	}()
	return f
}

// Cancel prevents a still-queued future from ever running. It reports true
// when the future will not (and did not) execute; false means execution
// already started — it will still finish and Wait will observe it.
func (f *Future) Cancel() bool {
	if f == nil {
		return true
	}
	if f.state.CompareAndSwap(futPending, futCancelled) {
		close(f.done)
		return true
	}
	return f.state.Load() == futCancelled
}

// Wait blocks until the future completes or is cancelled, and reports
// whether fn actually ran.
func (f *Future) Wait() bool {
	if f == nil {
		return false
	}
	<-f.done
	return f.state.Load() == futDone
}
