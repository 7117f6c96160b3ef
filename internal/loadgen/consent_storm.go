package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/policy"
)

// This file is the consent_storm scenario: the event control plane's
// end-to-end latency proof. Every owner's realm is gated behind a
// require-consent policy; requesters subscribe to GET /v1/events/consent
// on the owner's shard primary BEFORE the owner resolves, and the
// measured op is resolution→notification — once over the stream, once
// over the classic TokenStatus poll loop at pollInterval. A policy-write
// churn goroutine runs through both measured phases (its acknowledged
// writes join the final loss audit), so the latency numbers are taken
// with the PAP mutating and invalidation events interleaving on the same
// broker. A waiter that never hears its resolution counts as Lost — the
// zero-loss contract applied to notifications.

// pollInterval is the baseline's TokenStatus cadence — the latency class
// the stream has to beat; 150ms is a deliberately generous baseline.
const pollInterval = 150 * time.Millisecond

// notifyTimeout bounds one resolution→notification wait. On loopback a
// notification is milliseconds away; 10s of silence means it is lost.
const notifyTimeout = 10 * time.Second

// ConsentStorm measures consent resolution→notification latency over the
// event stream against the polling baseline, under concurrent PAP churn.
func ConsentStorm(ctx context.Context, rig *Rig, opts Options) (*Recorder, error) {
	rec := &Recorder{Scenario: "consent_storm"}
	// Consent events are published on the node that executes the
	// resolution, so the storm pins everything — ticket mint, stream
	// subscription, resolution — to the owners' shard primary. All owners
	// live on shard-a; a-primary is their resolving node.
	owners := rig.OwnersFor("storm", "shard-a", opts.Owners)
	rigs, err := setupOwners(ctx, rig, rec, "setup", owners)
	if err != nil {
		return rec, err
	}
	primaryURL := rig.Nodes["a-primary"].Proxy.URL()
	// The stream client carries no HTTPClient timeout: an SSE response
	// outlives any request timeout by design; ctx bounds it instead.
	streams := amclient.New(amclient.Config{BaseURL: primaryURL})
	sessions := make(map[core.UserID]*amclient.Client, len(owners))
	for _, owner := range owners {
		sessions[owner] = amclient.New(amclient.Config{
			BaseURL: primaryURL, User: owner,
			HTTPClient: &http.Client{Timeout: 15 * time.Second},
		})
	}

	// Gate every realm: LinkGeneral replaces the realm's single general
	// policy, so the gate re-states the alice permit alongside the
	// stormy-with-consent rule.
	var acked []ackedWrite
	gate := rec.Phase("gate")
	for _, owner := range owners {
		if err := checkCtx(ctx, "gate"); err != nil {
			gate.End()
			return rec, err
		}
		or := rigs[owner]
		err := gate.Op(func() error {
			p, err := or.Manager.CreatePolicy(policy.Policy{
				Owner: owner, Kind: policy.KindGeneral,
				Rules: []policy.Rule{
					{
						Effect:   policy.EffectPermit,
						Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: "alice"}},
						Actions:  []core.Action{core.ActionRead},
					},
					{
						Effect:     policy.EffectPermit,
						Subjects:   []policy.Subject{{Type: policy.SubjectUser, Name: "stormy"}},
						Actions:    []core.Action{core.ActionRead},
						Conditions: []policy.Condition{{Type: policy.CondRequireConsent}},
					},
				},
			})
			if err != nil {
				return err
			}
			acked = append(acked, ackedWrite{owner, p.ID})
			return or.Manager.LinkGeneral(owner, or.Realm, p.ID)
		})
		if err != nil {
			gate.End()
			return rec, phaseErr("gate", err)
		}
	}
	gate.End()

	// PAP churn through both measured phases: policy writes (and the
	// invalidation events they publish) keep the broker and the WAL busy
	// while resolutions race through. Unrecorded as a phase — phases must
	// not overlap — but every acknowledged write joins the loss audit.
	var (
		churnMu    sync.Mutex
		churnErr   error
		churnCount int
		churnStop  = make(chan struct{})
		churnDone  sync.WaitGroup
	)
	churnDone.Add(1)
	go func() {
		defer churnDone.Done()
		for i := 0; ; i++ {
			select {
			case <-churnStop:
				return
			case <-ctx.Done():
				return
			default:
			}
			or := rigs[owners[i%len(owners)]]
			id, err := or.WritePolicy(1000 + i)
			churnMu.Lock()
			if err != nil {
				if churnErr == nil {
					churnErr = err
				}
			} else {
				acked = append(acked, ackedWrite{or.Owner, id})
				churnCount++
			}
			churnMu.Unlock()
		}
	}()
	stopChurn := func() {
		select {
		case <-churnStop:
		default:
			close(churnStop)
		}
		churnDone.Wait()
	}
	defer stopChurn()

	// mint requests a stormy token and returns the pending-consent ticket.
	mint := func(owner core.UserID) (string, error) {
		tr, err := sessions[owner].RequestToken(core.TokenRequest{
			Requester: "storm-app", Subject: "stormy", Host: rigHost,
			Realm: rigs[owner].Realm, Resource: "photo", Action: core.ActionRead,
		})
		if err != nil {
			return "", err
		}
		if tr.PendingConsent == "" {
			return "", fmt.Errorf("token for %s granted outright; consent gate missing", owner)
		}
		return tr.PendingConsent, nil
	}

	// resolveAndWait is one measured op: resolve the ticket, then block
	// until the pre-subscribed waiter reports the notification.
	resolveAndWait := func(ph *PhaseRec, owner core.UserID, ticket string, notified <-chan error) error {
		return ph.Op(func() error {
			if err := sessions[owner].ResolveConsent(ticket, true); err != nil {
				return fmt.Errorf("resolve %s: %w", ticket, err)
			}
			select {
			case err := <-notified:
				return err
			case <-time.After(notifyTimeout):
				ph.Lost++
				return fmt.Errorf("resolution of %s never notified within %s", ticket, notifyTimeout)
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}

	// Phase stream_notify: the waiter is an EventStream subscriber,
	// connected (and therefore registered on the broker) before the
	// resolution fires.
	stream := rec.Phase("stream_notify")
	for i := 0; i < opts.Ops; i++ {
		if err := checkCtx(ctx, "stream_notify"); err != nil {
			stream.End()
			return rec, err
		}
		owner := owners[i%len(owners)]
		ticket, err := mint(owner)
		if err != nil {
			stream.End()
			return rec, phaseErr("stream_notify", err)
		}
		s := streams.Stream(amclient.StreamConfig{
			Path:  "/events/consent",
			Query: url.Values{core.ParamTicket: {ticket}},
		})
		if err := s.Connect(ctx); err != nil {
			s.Close()
			stream.End()
			return rec, phaseErr("stream_notify", err)
		}
		notified := make(chan error, 1)
		go func() { notified <- awaitStreamConsent(ctx, s, sessions[owner], ticket) }()
		err = resolveAndWait(stream, owner, ticket, notified)
		s.Close()
		if err != nil {
			stream.End()
			return rec, phaseErr("stream_notify", err)
		}
	}
	stream.End()

	// Phase poll_notify: the same op with the waiter on the classic
	// TokenStatus loop. The poller starts before the resolution — exactly
	// like a requester that began polling at ticket time — so the measured
	// latency carries the honest uniform phase offset of polling.
	poll := rec.Phase("poll_notify")
	for i := 0; i < opts.Ops; i++ {
		if err := checkCtx(ctx, "poll_notify"); err != nil {
			poll.End()
			return rec, err
		}
		owner := owners[i%len(owners)]
		ticket, err := mint(owner)
		if err != nil {
			poll.End()
			return rec, phaseErr("poll_notify", err)
		}
		notified := make(chan error, 1)
		go func() { notified <- awaitPolledConsent(ctx, sessions[owner], ticket) }()
		if err := resolveAndWait(poll, owner, ticket, notified); err != nil {
			poll.End()
			return rec, phaseErr("poll_notify", err)
		}
	}
	poll.End()

	stopChurn()
	churnMu.Lock()
	cErr, cCount := churnErr, churnCount
	churnMu.Unlock()
	if cErr != nil {
		return rec, phaseErr("churn", cErr)
	}
	rig.Logf("loadgen: consent_storm churn acknowledged %d policy writes", cCount)

	return rec, verifyAcked(ctx, rec, "verify", acked, func(w ackedWrite) error {
		_, err := rigs[w.owner].Manager.GetPolicy(w.owner, w.id)
		return err
	})
}

// awaitStreamConsent consumes the consent stream until the ticket's
// resolution arrives. A resync marker (events lost under the subscriber's
// buffer) falls back to one status check, mirroring the requester SDK.
func awaitStreamConsent(ctx context.Context, s *amclient.EventStream, session *amclient.Client, ticket string) error {
	for {
		ev, err := s.Next(ctx)
		if err != nil {
			return fmt.Errorf("stream wait for %s: %w", ticket, err)
		}
		switch ev.Type {
		case core.EventConsent:
			if st := ev.Consent; st != nil && st.Resolved {
				if !st.Approved {
					return fmt.Errorf("ticket %s denied; storm approves everything", ticket)
				}
				if st.Token == "" {
					return fmt.Errorf("ticket %s resolved without a token on the stream", ticket)
				}
				return nil
			}
		case core.EventResync:
			st, err := session.TokenStatus(ticket)
			if err == nil && st.Resolved {
				return nil
			}
		}
	}
}

// awaitPolledConsent is the baseline waiter: TokenStatus at pollInterval
// until the ticket resolves.
func awaitPolledConsent(ctx context.Context, session *amclient.Client, ticket string) error {
	t := time.NewTimer(0)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		st, err := session.TokenStatus(ticket)
		if err != nil {
			var ae *core.APIError
			if !errors.As(err, &ae) {
				return fmt.Errorf("poll wait for %s: %w", ticket, err)
			}
			// An APIError (e.g. a transient follower answer) is retried on
			// the next tick, like a real poller.
		} else if st.Resolved {
			return nil
		}
		t.Reset(pollInterval)
	}
}
