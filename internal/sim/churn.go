package sim

import (
	"fmt"
	"net/http"
	"time"

	"umac/internal/pep"
)

// This file holds the helpers that drive a Host's cache and its
// invalidation stream from outside the sim: the root benchmarks and
// internal/apps use them.

// AwaitInvalidation waits until the cache has applied an invalidation
// since its generation read gen — every event the invalidation stream
// applies advances it — and fails after five seconds.
func AwaitInvalidation(c *pep.DecisionCache, gen uint64) error {
	deadline := time.Now().Add(5 * time.Second)
	for c.Gen() == gen {
		if time.Now().After(deadline) {
			return fmt.Errorf("sim: no invalidation applied within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// TokenRequestFor builds an http.Request presenting tok as the UMAC
// authorization token — the shape Check/CheckBatch expect from a
// Requester's access.
func TokenRequestFor(tok string) *http.Request {
	req, _ := http.NewRequest(http.MethodGet, "http://sim/", nil)
	req.Header.Set("Authorization", pep.TokenScheme+" "+tok)
	return req
}
