package umac_test

// Benchmarks for the abuse-control rate limiter (internal/webutil). They
// anchor the admission path's promise in CI: charging a token bucket on
// every request must stay cheap and allocation-free even when many
// goroutines hit the limiter at once, because it sits in front of the
// decision hot path.

import (
	"fmt"
	"testing"
	"time"

	"umac/internal/webutil"
)

// BenchmarkRateLimit measures the striped admission path under parallel
// load: every goroutine charges the shared limiter, spread over a small
// (contended) and a large (stripe-friendly) tenant population.
func BenchmarkRateLimit(b *testing.B) {
	for _, tenants := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("tenants-%d", tenants), func(b *testing.B) {
			l := webutil.NewRateLimiter(nil,
				webutil.TierConfig{Name: "session", Rate: 1e12, Burst: 1e12})
			keys := make([]string, tenants)
			for i := range keys {
				keys[i] = fmt.Sprintf("tenant-%04d", i)
				l.Allow("session", keys[i], 1) // pre-create the bucket
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					l.Allow("session", keys[i%tenants], 1)
					i++
				}
			})
		})
	}
}

// BenchmarkRateLimitDeny measures the over-budget path — the cost of
// answering an abuser — which must stay as cheap as the admit path so a
// flood of throttled requests cannot itself become the bottleneck.
func BenchmarkRateLimitDeny(b *testing.B) {
	clk := time.Now() // frozen clock: never refills, every charge denies
	l := webutil.NewRateLimiter(func() time.Time { return clk },
		webutil.TierConfig{Name: "session", Rate: 1, Burst: 1})
	l.Allow("session", "abuser", 1) // drain the bucket
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Allow("session", "abuser", 1)
		}
	})
}
