package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"umac/internal/am"
	"umac/internal/audit"
	"umac/internal/cluster"
	"umac/internal/core"
	"umac/internal/events"
	"umac/internal/httpsig"
	"umac/internal/pep"
	"umac/internal/policy"
	"umac/internal/store"
	"umac/internal/token"
)

// The ladder times each layer's public functions on their own: fixed
// counts, one goroutine, the workloads' inputs. A rung says what a layer
// costs when nothing else runs; the spans say what the layers cost
// together. The ladder is the same for every workload, so a traced run of
// any of them reports all of it.

// timed runs op n times in chunks, preparing each chunk's inputs outside
// the clock, and returns the median over chunks of the time per call in
// ns, plus heap allocations per call.
func timed(n, chunks int, prep func(per int), op func(i int)) (ns, allocs float64) {
	per := max(n/chunks, 1)
	perCall := make([]float64, chunks)
	var ms runtime.MemStats
	var mallocs uint64
	for k := range perCall {
		if prep != nil {
			prep(per)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t0 := time.Now()
		for i := 0; i < per; i++ {
			op(i)
		}
		perCall[k] = float64(time.Since(t0)) / float64(per)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
	}
	return median(perCall), float64(mallocs) / float64(per*chunks)
}

// timedCalls clocks every call by itself and returns the median in ns;
// for rungs that wait on the disk, where a chunk mean would be a mean.
func timedCalls(n, writers int, op func(w, i int)) float64 {
	lat := make([][]float64, writers)
	var wg sync.WaitGroup
	for w := range lat {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/writers; i++ {
				t0 := time.Now()
				op(w, i)
				lat[w] = append(lat[w], float64(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	return median(all)
}

// grant mirrors what the AM stores per issued token and reads back on
// every decision.
type grant struct {
	Owner     core.UserID      `json:"owner"`
	Requester core.RequesterID `json:"requester"`
	Subject   core.UserID      `json:"subject"`
}

// runLadder measures every rung. a is the replay's in-process AM (fsync
// store) holding fx; dir takes the throwaway stores; scale divides the
// iteration counts (1 for a full run, more for the smoke sizing).
func runLadder(ctx context.Context, a *am.AM, fx *fixture, hostPEP *pep.Enforcer, dir string, scale int) (map[string]float64, error) {
	out := make(map[string]float64)
	n := func(full int) int { return max(full/scale, 20) }
	o := fx.owners[0]
	pairing, ok := hostPEP.PairingFor(o.id)
	if !ok {
		return nil, fmt.Errorf("ladder: no pairing for %s", o.id)
	}
	var fail error
	check := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}
	seq := 0
	fresh := func() core.ResourceID { seq++; return core.ResourceID("ladder-" + strconv.Itoa(seq)) }

	// httpsig: the decision query exactly as amclient builds it.
	query := core.DecisionQuery{PairingID: pairing.PairingID, Host: benchHost, Realm: o.realm, Resource: "ladder", Action: core.ActionRead, Token: o.token}
	body, err := json.Marshal(query)
	if err != nil {
		return nil, err
	}
	var reqs []*http.Request
	build := func(sign bool) func(per int) {
		return func(per int) {
			reqs = reqs[:0]
			for i := 0; i < per; i++ {
				r, err := http.NewRequest(http.MethodPost, fx.amURL+"/v1/api/decision", bytes.NewReader(body))
				check(err)
				if sign {
					check(httpsig.Sign(r, pairing.PairingID, pairing.Secret))
				}
				reqs = append(reqs, r)
			}
		}
	}
	ns, _ := timed(n(4000), 8, build(false), func(i int) { check(httpsig.Sign(reqs[i], pairing.PairingID, pairing.Secret)) })
	out["httpsig.sign_us"] = ns / 1e3
	verifier := httpsig.NewVerifier(httpsig.SecretSourceFunc(func(string) (string, bool) { return pairing.Secret, true }))
	ns, _ = timed(n(4000), 8, build(true), func(i int) { _, err := verifier.Verify(reqs[i]); check(err) })
	out["httpsig.verify_us"] = ns / 1e3

	// am: the decision layer below the handler, and the two write calls.
	ns, allocs := timed(n(8000), 8, nil, func(int) {
		q := query
		q.Resource = fresh()
		d, err := a.Decide(pairing.PairingID, q)
		check(err)
		if err == nil && !d.Permit() {
			check(fmt.Errorf("ladder: am.Decide denied: %s", d.Reason))
		}
	})
	out["am.decide_us"], out["am.decide_allocs"] = ns/1e3, allocs
	ns, _ = timed(n(2000), 8, nil, func(int) {
		q := core.BatchDecisionQuery{PairingID: pairing.PairingID, Host: benchHost, Token: o.token, Items: make([]core.BatchDecisionItem, 16)}
		for i := range q.Items {
			q.Items[i] = core.BatchDecisionItem{Realm: o.realm, Resource: fresh(), Action: core.ActionRead}
		}
		resp, err := a.DecideBatch(pairing.PairingID, q)
		check(err)
		if err == nil && len(resp.Results) != 16 {
			check(fmt.Errorf("ladder: am.DecideBatch answered %d of 16", len(resp.Results)))
		}
	})
	out["am.decide_batch16_us"] = ns / 1e3
	out["am.create_policy_us"] = timedCalls(n(400), 1, func(int, int) {
		_, err := a.CreatePolicy(o.id, policy.Policy{Owner: o.id, Name: "ladder", Kind: policy.KindGeneral, Rules: writeRules(0)})
		check(err)
	}) / 1e3
	out["am.issue_token_us"] = timedCalls(n(400), 1, func(int, int) {
		_, err := a.IssueToken(tokenRequest(o))
		check(err)
	}) / 1e3

	// token
	svc := token.NewService([]byte(tokenKey), 0)
	var tok string
	ns, _ = timed(n(20000), 8, nil, func(int) {
		var err error
		tok, _, err = svc.Mint(benchRequester, benchSubject, benchHost, o.realm)
		check(err)
	})
	out["token.mint_us"] = ns / 1e3
	ns, _ = timed(n(20000), 8, nil, func(int) { _, err := svc.Validate(tok); check(err) })
	out["token.validate_us"] = ns / 1e3

	// policy: the 16-rule general policy, permit found at the last rule.
	pol := o.policy
	ns, _ = timed(n(20000), 8, nil, func(int) { policy.Compile(&pol) })
	out["policy.compile_us"] = ns / 1e3
	engine := policy.NewEngine(&policy.Directory{})
	compiled := policy.Compile(&pol)
	preq := policy.Request{
		Subject: benchSubject, Requester: benchRequester, Action: core.ActionRead,
		Resource: core.ResourceRef{Host: benchHost, Resource: "ladder", Realm: o.realm},
		Realm:    o.realm, Owner: o.id,
	}
	ns, _ = timed(n(200000), 8, nil, func(int) {
		if engine.EvaluateCompiled(preq, compiled, nil).Decision != core.DecisionPermit {
			check(fmt.Errorf("ladder: EvaluateCompiled did not permit"))
		}
	})
	out["policy.evaluate_compiled_ns"] = ns

	// store: one read, and the write path with its costs added one by one.
	open := func(name string, opts ...store.Option) *store.Store {
		st, err := store.Open(filepath.Join(dir, name), opts...)
		check(err)
		return st
	}
	rec := grant{Owner: o.id, Requester: benchRequester, Subject: benchSubject}
	nowal := open("ladder-nowal.json", store.WithoutWAL())
	buffered := open("ladder-buffered.json")
	fsync := open("ladder-fsync.json", store.WithFsync())
	if fail != nil {
		return nil, fail
	}
	defer nowal.Close()
	defer buffered.Close()
	defer fsync.Close()
	put := func(st *store.Store, prefix string) func(i int) {
		return func(i int) { _, err := st.Put("grant", prefix+strconv.Itoa(i), rec); check(err) }
	}
	out["store.put_nowal_ns"], _ = timed(n(40000), 8, nil, put(nowal, "k"))
	ns, _ = timed(n(8000), 8, nil, put(buffered, "k"))
	out["store.put_buffered_us"] = ns / 1e3
	out["store.put_fsync_us"] = timedCalls(n(400), 1, func(_, i int) { put(fsync, "one-")(i) }) / 1e3
	out["store.put_fsync_w2_us"] = timedCalls(n(800), 2, func(w, i int) { put(fsync, "two-"+strconv.Itoa(w)+"-")(i) }) / 1e3
	var got grant
	out["store.get_ns"], _ = timed(n(200000), 8, nil, func(i int) { _, err := nowal.Get("grant", "k"+strconv.Itoa(i%8), &got); check(err) })

	// audit: the decision path's buffered send to the log writer.
	pipe := audit.NewPipeline(&audit.Log{}, 0)
	ev := audit.Event{Type: audit.EventDecision, Owner: o.id, Host: benchHost, Realm: o.realm, Resource: "ladder", Requester: benchRequester, Action: core.ActionRead, Decision: "permit"}
	out["audit.enqueue_ns"], _ = timed(n(200000), 8, nil, func(int) { pipe.Enqueue(ev) })
	pipe.Close()

	// events: publish with one subscriber attached, drained between chunks
	// so its ring never overflows.
	broker := events.New(events.Options{})
	sub, _ := broker.Subscribe(events.Filter{}, -1)
	inval := core.Event{Type: core.EventInvalidation, Owner: o.id, Invalidation: &core.InvalidationPush{Owner: o.id, Realms: []core.RealmID{o.realm}}}
	drain := func(int) {
		for sub.Delivered() < broker.LastSeq() {
			_, _, err := sub.Next(ctx)
			check(err)
			if err != nil {
				return
			}
		}
	}
	out["events.publish_ns"], _ = timed(n(20000), max(n(20000)/200, 1), drain, func(int) { broker.Publish(inval) })
	broker.Close()

	// cluster: the ring of one the server routes every owner through.
	shards, err := cluster.ParseSpec("shard-a=" + fx.amURL)
	check(err)
	ring, err := cluster.New(shards, 0)
	check(err)
	if fail != nil {
		return nil, fail
	}
	out["cluster.ring_owner_ns"], _ = timed(n(200000), 8, nil, func(i int) { ring.Owner(fx.owners[i%len(fx.owners)].id) })

	// pep: a cache hit. Half the capacity, so that no shard of the cache
	// overflows and every stored key is still there.
	cache := pep.NewDecisionCache()
	keys := make([]string, pep.DefaultCacheCapacity/2)
	for i := range keys {
		keys[i] = "ladder-" + strconv.Itoa(i)
		cache.Put(keys[i], true, 3600)
	}
	out["pep.cache_get_ns"], _ = timed(n(200000), 8, nil, func(i int) {
		if _, ok := cache.Get(keys[(i*7919)%len(keys)]); !ok {
			check(fmt.Errorf("ladder: cache miss on a stored key"))
		}
	})
	return out, fail
}
