package umac_test

// Benchmarks for the streaming event control plane (internal/events + the
// /v1/events SSE family). They anchor the broker's core promises in CI:
// publish cost stays flat as subscribers grow, a stalled subscriber does
// not slow the publisher, and end-to-end SSE delivery is cheap relative to
// a polling interval.

import (
	"context"
	"fmt"
	"testing"

	"umac/internal/core"
	"umac/internal/events"
)

// BenchmarkEventPublish measures raw publish cost with a draining
// subscriber fleet of varying size.
func BenchmarkEventPublish(b *testing.B) {
	for _, subs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("subs-%d", subs), func(b *testing.B) {
			broker := events.New(events.Options{})
			defer broker.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for i := 0; i < subs; i++ {
				sub, _ := broker.Subscribe(events.Filter{}, -1)
				go func(s *events.Subscriber) {
					for {
						if _, _, err := s.Next(ctx); err != nil {
							return
						}
					}
				}(sub)
			}
			e := core.Event{Type: core.EventInvalidation, Owner: "bob",
				Invalidation: &core.InvalidationPush{Owner: "bob"}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				broker.Publish(e)
			}
		})
	}
}

// BenchmarkEventPublishStalledSubscriber is the backpressure anchor: a
// subscriber that never drains must not change the publish cost class —
// overflow is a ring drop, not a block.
func BenchmarkEventPublishStalledSubscriber(b *testing.B) {
	broker := events.New(events.Options{SubscriberBuffer: 8})
	defer broker.Close()
	sub, _ := broker.Subscribe(events.Filter{}, -1)
	defer sub.Close()
	e := core.Event{Type: core.EventConsent, Owner: "bob", Ticket: "t"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		broker.Publish(e)
	}
}

// BenchmarkEventFanoutFiltered measures publish with subscribers whose
// filters mostly do NOT match (the realistic owner-sharded case: one
// owner's mutation, many owners' subscriptions).
func BenchmarkEventFanoutFiltered(b *testing.B) {
	broker := events.New(events.Options{})
	defer broker.Close()
	for i := 0; i < 64; i++ {
		sub, _ := broker.Subscribe(events.Filter{
			Types: []core.EventType{core.EventInvalidation},
			Owner: core.UserID(fmt.Sprintf("owner-%d", i)),
		}, -1)
		defer sub.Close()
	}
	e := core.Event{Type: core.EventInvalidation, Owner: "owner-0",
		Invalidation: &core.InvalidationPush{Owner: "owner-0"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		broker.Publish(e)
	}
}

// BenchmarkEventSubscribeResume measures a resume subscription against a
// full replay window (the reconnect storm case).
func BenchmarkEventSubscribeResume(b *testing.B) {
	broker := events.New(events.Options{ReplayWindow: 1024})
	defer broker.Close()
	for i := 0; i < 2048; i++ {
		broker.Publish(core.Event{Type: core.EventReplication, Signal: core.SignalLag})
	}
	after := broker.LastSeq() - 512
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, _ := broker.Subscribe(events.Filter{}, after)
		sub.Close()
	}
}
