package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/pep"
	"umac/internal/policy"
)

const (
	benchHost      core.HostID      = "webpics"
	benchSubject   core.UserID      = "alice"
	benchRequester core.RequesterID = "alice-browser"
)

// client is one load-generating goroutine's kit: its own keep-alive
// connection pool, its own PEP (so caches and singleflight are not shared
// between clients) and its own seeded random stream.
type client struct {
	http *http.Client
	pep  *pep.Enforcer
	rng  *rand.Rand
}

// newHTTPClient returns a client with a private connection pool. There is
// no overall Client.Timeout because the PEP's invalidation streams share
// the client and must stay open; a stuck request is cut by the header
// timeout instead.
func newHTTPClient(rt func(http.RoundTripper) http.RoundTripper) *http.Client {
	var t http.RoundTripper = &http.Transport{
		MaxIdleConns:          16,
		MaxIdleConnsPerHost:   16,
		ResponseHeaderTimeout: 15 * time.Second,
	}
	if rt != nil {
		t = rt(t)
	}
	return &http.Client{Transport: t}
}

// newClients builds n clients whose random streams derive from seed. wrap,
// when non-nil, wraps each client's transport (the traced run's spans).
func newClients(n int, seed int64, wrap func(http.RoundTripper) http.RoundTripper) []*client {
	cs := make([]*client, n)
	for i := range cs {
		hc := newHTTPClient(wrap)
		cs[i] = &client{
			http: hc,
			pep:  pep.New(pep.Config{Host: benchHost, HTTPClient: hc}),
			rng:  rand.New(rand.NewSource(seed*1000 + int64(i))),
		}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.pep.Close()
		c.http.CloseIdleConnections()
	}
}

// owner is one resource owner's protocol state as the Host and the owner's
// own session see it.
type owner struct {
	id     core.UserID
	realm  core.RealmID
	policy policy.Policy // the linked 16-rule general policy, with its ID
	token  string
	// req carries the Requester's token the way a Host handler would see
	// it; Check only reads it.
	req *http.Request
}

// fixture is the seeded state every workload starts from.
type fixture struct {
	amURL  string
	owners []owner
	// probe is an extra owner nobody's load touches: revocation is
	// exercised on it, so a revoke never changes a verdict the load
	// clients assert.
	probe owner
}

// generalRules is the linked policy: 15 rules that do not match alice,
// then the permit, all covering read, so evaluation walks the whole
// candidate list before it permits. No rule covers write, which is
// therefore denied.
func generalRules() []policy.Rule {
	rules := make([]policy.Rule, 0, 16)
	for i := 0; i < 15; i++ {
		sub := policy.Subject{Type: policy.SubjectUser, Name: fmt.Sprintf("friend-%d", i)}
		if i%2 == 1 {
			sub = policy.Subject{Type: policy.SubjectGroup, Name: fmt.Sprintf("circle-%d", i)}
		}
		rules = append(rules, policy.Rule{
			Effect: policy.EffectPermit, Subjects: []policy.Subject{sub},
			Actions: []core.Action{core.ActionRead},
		})
	}
	return append(rules, policy.Rule{
		Effect:   policy.EffectPermit,
		Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: string(benchSubject)}},
		Actions:  []core.Action{core.ActionRead},
	})
}

// revokedRules is generalRules without the permit for alice.
func revokedRules() []policy.Rule { return generalRules()[:15] }

// session returns the owner's management client.
func session(amURL string, hc *http.Client, id core.UserID) *amclient.Client {
	return amclient.New(amclient.Config{BaseURL: amURL, HTTPClient: hc, User: id})
}

// buildOwner runs the whole protocol for one owner over the AM's HTTP
// surface: pairing (Fig. 3), realm registration (Fig. 4), policy + link,
// and a token for alice (Fig. 5). The pairing is completed by the first
// client's PEP and shared with the others, like the worker processes of
// one Host share its credential.
func buildOwner(amURL string, id core.UserID, via *client, clients []*client) (owner, error) {
	o := owner{id: id, realm: core.RealmID("photos-" + string(id))}
	mgr := session(amURL, via.http, id)
	code, err := mgr.ConfirmPairing(benchHost)
	if err != nil {
		return o, fmt.Errorf("confirm pairing for %s: %w", id, err)
	}
	pairing, err := clients[0].pep.CompletePairing(amURL, id, code)
	if err != nil {
		return o, fmt.Errorf("complete pairing for %s: %w", id, err)
	}
	for _, c := range clients[1:] {
		c.pep.SetRealmPairing(id, o.realm, pairing)
	}
	if err := clients[0].pep.Protect(id, o.realm, nil, ""); err != nil {
		return o, err
	}
	o.policy, err = mgr.CreatePolicy(policy.Policy{
		Owner: id, Name: "general", Kind: policy.KindGeneral, Rules: generalRules(),
	})
	if err != nil {
		return o, fmt.Errorf("create policy for %s: %w", id, err)
	}
	if err := mgr.LinkGeneral(id, o.realm, o.policy.ID); err != nil {
		return o, fmt.Errorf("link policy for %s: %w", id, err)
	}
	tok, err := mgr.RequestToken(tokenRequest(o))
	if err != nil {
		return o, fmt.Errorf("token for %s: %w", id, err)
	}
	o.token = tok.Token
	o.req, err = http.NewRequest(http.MethodGet, "http://webpics.invalid/photos", nil)
	if err != nil {
		return o, err
	}
	o.req.Header.Set("Authorization", pep.TokenScheme+" "+o.token)
	return o, nil
}

func tokenRequest(o owner) core.TokenRequest {
	return core.TokenRequest{
		Requester: benchRequester, Subject: benchSubject, Host: benchHost,
		Realm: o.realm, Resource: "album", Action: core.ActionRead,
	}
}

// buildFixture creates n owners plus the probe owner, spreading the work
// over the clients. Owner names carry the seed, so two seeds share no
// state even by accident.
func buildFixture(ctx context.Context, amURL string, seed int64, n int, clients []*client) (*fixture, error) {
	fx := &fixture{amURL: amURL, owners: make([]owner, n)}
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := ci; i < n; i += len(clients) {
				if errs[ci] = ctx.Err(); errs[ci] != nil {
					return
				}
				id := core.UserID(fmt.Sprintf("owner-s%d-%02d", seed, i))
				if fx.owners[i], errs[ci] = buildOwner(amURL, id, c, clients); errs[ci] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var err error
	fx.probe, err = buildOwner(amURL, core.UserID(fmt.Sprintf("probe-s%d", seed)), clients[0], clients)
	return fx, err
}

// subscribe starts the PEP's invalidation stream for each owner and waits
// until the AM reports that many more subscribers, so an event published
// afterwards cannot be missed by a stream that was still dialling.
func subscribe(ctx context.Context, fx *fixture, c *client, owners []owner) error {
	before, err := invalidationSubscribers(fx.amURL, c.http)
	if err != nil {
		return err
	}
	for _, o := range owners {
		if err := c.pep.StartInvalidationStream(o.id); err != nil {
			return fmt.Errorf("invalidation stream for %s: %w", o.id, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		n, err := invalidationSubscribers(fx.amURL, c.http)
		if err != nil {
			return err
		}
		if n >= before+len(owners) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d invalidation streams connected", n-before, len(owners))
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func invalidationSubscribers(amURL string, hc *http.Client) (int, error) {
	m, err := readMetrics(hc, amURL)
	return m.Events.Subscribers[core.EventInvalidation], err
}
