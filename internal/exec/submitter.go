package exec

import "sync"

// Submitter admits speculative background evaluations onto a pool. It is a
// second, separately bounded concurrency level: a pool of j workers hands
// out a submitter of capacity j-1, so a driver whose committed work already
// saturates the pool can speculate ahead without ever exceeding 2j-1
// concurrent evaluations. A nil Submitter is valid and admits nothing,
// which is how a sequential pool (j = 1) disables speculation entirely and
// reproduces the paper's one-at-a-time execution order.
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

// Go runs fn in the background once the submitter has a free slot, unless
// stop closes first: fn never starts after stop is closed. It returns
// immediately and counts the evaluation in wg, so close(stop) followed by
// wg.Wait() drops everything still queued and waits out whatever started.
// fn must be safe to run concurrently with the caller and delivers its own
// result. A nil or zero-capacity submitter runs nothing.
func (s *Submitter) Go(stop <-chan struct{}, wg *sync.WaitGroup, fn func()) {
	if s.Cap() < 1 {
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case s.sem <- struct{}{}:
		case <-stop:
			return
		}
		defer func() { <-s.sem }()
		select {
		case <-stop: // a slot and stop were both ready: stop wins
			return
		default:
		}
		fn()
	}()
}
