package pep

import (
	"sync"

	"umac/internal/core"
)

// flightGroup collapses concurrent decision queries for the same cache key
// into one Host→AM round-trip: the first caller (the leader) performs the
// query, every concurrent caller for the same key waits and shares the
// result. Without it, a burst of requests hitting one uncached resource —
// a cold start, a TTL expiry on a hot photo, an invalidation push — would
// each pay a signed round-trip for the identical answer.
//
// This is a purpose-built miniature of the well-known singleflight pattern
// (the stdlib keeps its copy internal), specialised to decision responses.
type flightGroup struct {
	mu       sync.Mutex
	inflight map[entryKey]*flightCall
}

type flightCall struct {
	done chan struct{}
	dec  core.DecisionResponse
	err  error
}

// do runs fn once per key among concurrent callers. shared is true for
// callers that received another caller's result.
func (g *flightGroup) do(key entryKey, fn func() (core.DecisionResponse, error)) (dec core.DecisionResponse, err error, shared bool) {
	g.mu.Lock()
	if g.inflight == nil {
		g.inflight = make(map[entryKey]*flightCall)
	}
	if call, ok := g.inflight[key]; ok {
		g.mu.Unlock()
		<-call.done
		return call.dec, call.err, true
	}
	call := &flightCall{done: make(chan struct{})}
	g.inflight[key] = call
	g.mu.Unlock()

	call.dec, call.err = fn()

	g.mu.Lock()
	delete(g.inflight, key)
	g.mu.Unlock()
	close(call.done)
	return call.dec, call.err, false
}
