package service

import (
	"errors"
	"sync"
)

// flightGroup is a minimal stdlib-only singleflight: concurrent callers
// of Do with the same key run fn once and all receive its result. It
// fronts the byte cache so a thundering herd of misses for one key —
// the moment after a snapshot swap, say — costs one compute + encode,
// not N.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	wg  sync.WaitGroup
	enc Encoded
	err error
}

// errFlightPanicked is what the callers sharing a call receive when its
// fn panics; the panic itself goes on up the goroutine that ran fn.
var errFlightPanicked = errors.New("service: shared computation panicked")

// Do runs fn once per concurrent set of callers for key. shared is true
// for callers that received another caller's result.
func (g *flightGroup) Do(key string, fn func() (Encoded, error)) (enc Encoded, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.enc, true, c.err
	}
	c := &flightCall{err: errFlightPanicked} // stands unless fn returns
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	// Release the key and wake the sharers even if fn panics, so the key
	// is not wedged for every later caller.
	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		c.wg.Done()
		g.mu.Unlock()
	}()
	c.enc, c.err = fn()
	return c.enc, false, c.err
}
