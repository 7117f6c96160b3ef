// Benchmark harness for the reproduction: one benchmark per figure of the
// paper (Figs. 1-6 — the paper's evaluation is qualitative, so each flow is
// reproduced as a measured protocol execution on the in-process HTTP
// substrate), plus the model-comparison and scaling experiments derived
// from Sections III, V and VIII. docs/BENCHMARKS.md maps the committed
// results (BENCH_*.json).
//
// Run with: go test -bench=. -benchmem
package umac_test

import (
	"bytes"
	"fmt"
	"image"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"umac/internal/am"
	"umac/internal/amclient"
	appgallery "umac/internal/apps/gallery"
	appstorage "umac/internal/apps/storage"
	"umac/internal/baseline/localacl"
	"umac/internal/baseline/pullmodel"
	"umac/internal/baseline/umastate"
	"umac/internal/cluster"
	"umac/internal/core"
	"umac/internal/httpsig"
	"umac/internal/loadgen"
	"umac/internal/pep"
	"umac/internal/policy"
	"umac/internal/rebalance"
	"umac/internal/requester"
	"umac/internal/sim"
	"umac/internal/store"
	"umac/internal/token"
)

// benchWorld builds the standard fixture: bob's host with n resources in
// realm "travel", paired, protected, friends-read policy linked, alice in
// friends.
func benchWorld(b *testing.B, n int) (*sim.World, *sim.SimpleHost) {
	b.Helper()
	w := sim.NewWorld()
	b.Cleanup(w.Close)
	h := w.AddHost("webpics")
	ids := make([]core.ResourceID, n)
	for i := 0; i < n; i++ {
		ids[i] = core.ResourceID(fmt.Sprintf("photo-%04d", i))
		h.AddResource("bob", "travel", ids[i], []byte("bench content"))
	}
	bob := sim.NewUserAgent("bob")
	if err := bob.PairHost(h, w.AMServer.URL); err != nil {
		b.Fatal(err)
	}
	if err := h.Enforcer.Protect("bob", "travel", ids, ""); err != nil {
		b.Fatal(err)
	}
	p, err := w.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectGroup, Name: "friends"}, {Type: policy.SubjectOwner}},
			Actions:  []core.Action{core.ActionRead, core.ActionList},
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.AM.LinkGeneral("bob", "travel", p.ID); err != nil {
		b.Fatal(err)
	}
	if err := w.AM.AddGroupMember("bob", "bob", "friends", "alice"); err != nil {
		b.Fatal(err)
	}
	return w, h
}

// --- E1 / Fig. 1: the full architecture round-trip ---
// store resource → protect → compose policy leg → token → access →
// decision → enforce, once per iteration with a fresh realm.
func BenchmarkFig1ArchitectureRoundTrip(b *testing.B) {
	w, h := benchWorld(b, 1)
	pol, err := w.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectEveryone}},
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		realm := core.RealmID(fmt.Sprintf("realm-%d", i))
		res := core.ResourceID(fmt.Sprintf("res-%d", i))
		h.AddResource("bob", realm, res, []byte("x")) // (1) store
		if err := h.Enforcer.Protect("bob", realm, []core.ResourceID{res}, ""); err != nil {
			b.Fatal(err)
		}
		if err := w.AM.LinkGeneral("bob", realm, pol.ID); err != nil { // (2) policy
			b.Fatal(err)
		}
		client := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
		if _, err := client.Fetch(h.ResourceURL(res), core.ActionRead); err != nil { // (3)-(6)
			b.Fatal(err)
		}
	}
}

// --- E2 / Fig. 2: full first-access protocol ---
// Fresh requester and cold host cache per iteration: 401 referral → token
// request/issue → retry with token → decision query → serve.
func BenchmarkFig2FullProtocolFirstAccess(b *testing.B) {
	_, h := benchWorld(b, 1)
	url := h.ResourceURL("photo-0000")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Enforcer.Cache().Invalidate()
		client := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
		if _, err := client.Fetch(url, core.ActionRead); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7 / §V.B.6: subsequent access with cached decision ---
// Warm token and warm decision cache: the Host enforces locally.
func BenchmarkFig2SubsequentAccessCached(b *testing.B) {
	_, h := benchWorld(b, 1)
	url := h.ResourceURL("photo-0000")
	client := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	if _, err := client.Fetch(url, core.ActionRead); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Fetch(url, core.ActionRead); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3 / Fig. 3: trust establishment (pairing handshake) ---
// The full browser-redirect + code-exchange flow per iteration.
func BenchmarkFig3TrustEstablishment(b *testing.B) {
	w := sim.NewWorld()
	b.Cleanup(w.Close)
	h := w.AddHost("webpics")
	bob := sim.NewUserAgent("bob")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bob.PairHost(h, w.AMServer.URL); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4 / Fig. 4: policy composition and linking ---
func BenchmarkFig4PolicyComposition(b *testing.B) {
	w, _ := benchWorld(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := w.AM.CreatePolicy("bob", policy.Policy{
			Owner: "bob", Name: fmt.Sprintf("p-%d", i), Kind: policy.KindGeneral,
			Rules: []policy.Rule{{
				Effect:   policy.EffectPermit,
				Subjects: []policy.Subject{{Type: policy.SubjectGroup, Name: "friends"}},
				Actions:  []core.Action{core.ActionRead},
			}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.AM.LinkGeneral("bob", core.RealmID(fmt.Sprintf("r-%d", i)), p.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5 / Fig. 5: authorization-token issuance over HTTP ---
func BenchmarkFig5ObtainAuthorizationToken(b *testing.B) {
	w, _ := benchWorld(b, 1)
	client := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.ObtainToken(w.AMServer.URL, "webpics", "travel", "photo-0000", core.ActionRead); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6 / Fig. 6: token-bearing access with decision query ---
// Warm token, cold decision cache: each access costs exactly one signed
// Host→AM decision query.
func BenchmarkFig6AccessWithDecisionQuery(b *testing.B) {
	_, h := benchWorld(b, 1)
	url := h.ResourceURL("photo-0000")
	client := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	if _, err := client.Fetch(url, core.ActionRead); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Enforcer.Cache().Invalidate()
		if _, err := client.Fetch(url, core.ActionRead); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: per-access cost of each protocol model at steady state ---
func BenchmarkModelComparison(b *testing.B) {
	b.Run("push-token-cached", func(b *testing.B) {
		_, h := benchWorld(b, 1)
		url := h.ResourceURL("photo-0000")
		client := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
		if _, err := client.Fetch(url, core.ActionRead); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Fetch(url, core.ActionRead); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pull-per-access", func(b *testing.B) {
		w, h := benchWorld(b, 1)
		pairing, _ := h.Enforcer.PairingFor("bob")
		pull := pullmodel.New(h.ID, nil)
		_ = w
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ok, err := pull.Check(pairing, "alice", "alice-browser", "travel", "photo-0000", core.ActionRead)
			if err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("uma-state-per-access", func(b *testing.B) {
		w, h := benchWorld(b, 1)
		pairing, _ := h.Enforcer.PairingFor("bob")
		rc := &umastate.RequesterClient{ID: "alice-browser", Subject: "alice"}
		handle, err := rc.EstablishState(w.AMServer.URL, h.ID, "travel", "photo-0000", core.ActionRead)
		if err != nil {
			b.Fatal(err)
		}
		enf := umastate.New(h.ID, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ok, err := enf.Check(pairing, handle, "travel", "photo-0000", core.ActionRead)
			if err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("local-acl", func(b *testing.B) {
		var m localacl.Matrix
		m.Grant("bob", "photo-0000", "alice", core.ActionRead)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !m.Check("bob", "photo-0000", "alice", core.ActionRead) {
				b.Fatal("denied")
			}
		}
	})
}

// --- E8: policy engine micro-benchmarks ---
func BenchmarkPolicyEngineEvaluate(b *testing.B) {
	for _, rules := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("rules-%d", rules), func(b *testing.B) {
			p := &policy.Policy{ID: "p", Owner: "bob", Kind: policy.KindGeneral}
			for i := 0; i < rules-1; i++ {
				p.Rules = append(p.Rules, policy.Rule{
					Effect:   policy.EffectPermit,
					Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: fmt.Sprintf("user-%d", i)}},
					Actions:  []core.Action{core.ActionWrite},
				})
			}
			p.Rules = append(p.Rules, policy.Rule{
				Effect:   policy.EffectPermit,
				Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: "alice"}},
				Actions:  []core.Action{core.ActionRead},
			})
			e := policy.NewEngine(nil)
			req := policy.Request{
				Subject: "alice", Action: core.ActionRead, Owner: "bob", Realm: "travel",
				Resource: core.ResourceRef{Host: "h", Resource: "r"},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := e.Evaluate(req, p, nil); res.Decision != core.DecisionPermit {
					b.Fatal("deny")
				}
			}
		})
	}
}

// BenchmarkPolicyEngineGroupSize verifies membership checks stay O(1) in
// group size (hash-set directory).
func BenchmarkPolicyEngineGroupSize(b *testing.B) {
	for _, size := range []int{10, 1000, 100000} {
		b.Run(fmt.Sprintf("members-%d", size), func(b *testing.B) {
			var dir policy.Directory
			for i := 0; i < size; i++ {
				dir.Add("bob", "friends", core.UserID(fmt.Sprintf("user-%d", i)))
			}
			e := policy.NewEngine(&dir)
			p := &policy.Policy{
				ID: "p", Owner: "bob", Kind: policy.KindGeneral,
				Rules: []policy.Rule{{
					Effect:   policy.EffectPermit,
					Subjects: []policy.Subject{{Type: policy.SubjectGroup, Name: "friends"}},
				}},
			}
			req := policy.Request{
				Subject: core.UserID(fmt.Sprintf("user-%d", size-1)),
				Action:  core.ActionRead, Owner: "bob", Realm: "travel",
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := e.Evaluate(req, p, nil); res.Decision != core.DecisionPermit {
					b.Fatal("deny")
				}
			}
		})
	}
}

// BenchmarkAMDecideTotalPolicies shows decision cost is independent of the
// total number of stored policies (only linked policies are evaluated).
func BenchmarkAMDecideTotalPolicies(b *testing.B) {
	for _, total := range []int{1, 100, 1000} {
		b.Run(fmt.Sprintf("stored-%d", total), func(b *testing.B) {
			w, h := benchWorld(b, 1)
			for i := 0; i < total; i++ {
				_, err := w.AM.CreatePolicy("bob", policy.Policy{
					Owner: "bob", Name: fmt.Sprintf("noise-%d", i), Kind: policy.KindSpecific,
					Rules: []policy.Rule{{Effect: policy.EffectDeny, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			pairing, _ := h.Enforcer.PairingFor("bob")
			tok, err := w.AM.IssueToken(core.TokenRequest{
				Requester: "alice-browser", Subject: "alice", Host: "webpics",
				Realm: "travel", Resource: "photo-0000", Action: core.ActionRead,
			})
			if err != nil {
				b.Fatal(err)
			}
			q := core.DecisionQuery{
				Host: "webpics", Realm: "travel", Resource: "photo-0000",
				Action: core.ActionRead, Token: tok.Token,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec, err := w.AM.Decide(pairing.PairingID, q)
				if err != nil || !dec.Permit() {
					b.Fatalf("dec=%+v err=%v", dec, err)
				}
			}
		})
	}
}

// --- E10: consolidated audit summary over a growing event log ---
func BenchmarkAuditConsolidatedSummary(b *testing.B) {
	for _, events := range []int{100, 10000} {
		b.Run(fmt.Sprintf("events-%d", events), func(b *testing.B) {
			w, h := benchWorld(b, 1)
			pairing, _ := h.Enforcer.PairingFor("bob")
			tok, err := w.AM.IssueToken(core.TokenRequest{
				Requester: "alice-browser", Subject: "alice", Host: "webpics",
				Realm: "travel", Resource: "photo-0000", Action: core.ActionRead,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < events; i++ {
				w.AM.Decide(pairing.PairingID, core.DecisionQuery{
					Host: "webpics", Realm: "travel", Resource: "photo-0000",
					Action: core.ActionRead, Token: tok.Token,
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := w.AM.Audit().Summarize("bob")
				if s.PermitCount == 0 {
					b.Fatal("empty summary")
				}
			}
		})
	}
}

// --- E11: consent and terms flows ---
func BenchmarkConsentFlow(b *testing.B) {
	w, h := benchWorld(b, 1)
	h.AddResource("bob", "private", "diary", []byte("x"))
	if err := h.Enforcer.Protect("bob", "private", []core.ResourceID{"diary"}, ""); err != nil {
		b.Fatal(err)
	}
	p, err := w.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:     policy.EffectPermit,
			Subjects:   []policy.Subject{{Type: policy.SubjectEveryone}},
			Conditions: []policy.Condition{{Type: policy.CondRequireConsent}},
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.AM.LinkGeneral("bob", "private", p.ID); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := w.AM.IssueToken(core.TokenRequest{
			Requester: "editor", Subject: "evelyn", Host: "webpics",
			Realm: "private", Resource: "diary", Action: core.ActionRead,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.AM.ResolveConsent("bob", resp.PendingConsent, true); err != nil {
			b.Fatal(err)
		}
		st, err := w.AM.ConsentStatus(resp.PendingConsent)
		if err != nil || st.Token == "" {
			b.Fatalf("st=%+v err=%v", st, err)
		}
	}
}

func BenchmarkTermsPaymentFlow(b *testing.B) {
	w, h := benchWorld(b, 1)
	h.AddResource("bob", "shop", "print", []byte("x"))
	if err := h.Enforcer.Protect("bob", "shop", []core.ResourceID{"print"}, ""); err != nil {
		b.Fatal(err)
	}
	p, err := w.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:     policy.EffectPermit,
			Subjects:   []policy.Subject{{Type: policy.SubjectEveryone}},
			Conditions: []policy.Condition{{Type: policy.CondRequireClaim, Claim: "payment"}},
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.AM.LinkGeneral("bob", "shop", p.ID); err != nil {
		b.Fatal(err)
	}
	req := core.TokenRequest{
		Requester: "kiosk", Subject: "carol", Host: "webpics",
		Realm: "shop", Resource: "print", Action: core.ActionRead,
		Claims: map[string]string{"payment": "rcpt"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := w.AM.IssueToken(req)
		if err != nil || resp.Token == "" {
			b.Fatalf("resp=%+v err=%v", resp, err)
		}
	}
}

// --- E12: cross-Host access — the gallery imports a photo from the
// storage service, acting as a Requester under its own application
// identity (Section VI).
func BenchmarkCrossHostPhotoLoad(b *testing.B) {
	w := sim.NewWorld()
	b.Cleanup(w.Close)

	st := appstorage.New(appstorage.Config{HostID: "storage"})
	stSrv := w.Serve("storage", st.Handler())
	b.Cleanup(stSrv.Close)
	st.Enforcer.SetBaseURL(stSrv.URL)

	// A small real PNG in bob's travel directory.
	img := image.NewRGBA(image.Rect(0, 0, 16, 16))
	png, err := appgallery.EncodePNG(img)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Tree("bob").Put("/travel/pic.png", png); err != nil {
		b.Fatal(err)
	}

	bob := sim.NewUserAgent("bob")
	if err := bob.PairEnforcer(st.Enforcer, w.AMServer.URL); err != nil {
		b.Fatal(err)
	}
	if err := st.Enforcer.Protect("bob", "travel", nil, ""); err != nil {
		b.Fatal(err)
	}
	p, err := w.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectRequester, Name: "gallery"}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.AM.LinkGeneral("bob", "travel", p.ID); err != nil {
		b.Fatal(err)
	}

	// The gallery-side requester client (what /import uses internally).
	client := requester.New(requester.Config{ID: "gallery", Subject: "bob"})
	url := appstorage.FileURL(stSrv.URL, "bob", "/travel/pic.png")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Fetch(url, core.ActionRead); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkTokenMint(b *testing.B) {
	s := token.NewService([]byte("bench-key-0123456789abcdefghijkl"), time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Mint("req", "sub", "host", "realm"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTokenValidate(b *testing.B) {
	s := token.NewService([]byte("bench-key-0123456789abcdefghijkl"), time.Hour)
	tok, _, err := s.Mint("req", "sub", "host", "realm")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Validate(tok); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHTTPSigSignVerify(b *testing.B) {
	v := httpsig.NewVerifier(httpsig.SecretSourceFunc(func(string) (string, bool) {
		return "secret", true
	}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, _ := http.NewRequest(http.MethodPost, "http://am/api/decision", nil)
		if err := httpsig.Sign(req, "pair", "secret"); err != nil {
			b.Fatal(err)
		}
		if _, err := v.Verify(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorageFSPutGet(b *testing.B) {
	var fs appstorage.FS
	content := bytes.Repeat([]byte("x"), 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/travel/%d/file.bin", i%64)
		if err := fs.Put(path, content); err != nil {
			b.Fatal(err)
		}
		if _, err := fs.Get(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGalleryEditRotate(b *testing.B) {
	img := image.NewRGBA(image.Rect(0, 0, 128, 128))
	data, err := appgallery.EncodePNG(img)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := appgallery.ApplyEdit(data, appgallery.EditParams{Op: appgallery.OpRotate90}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E13: datastore substrate — shard striping, WAL, recovery ---

// benchEntity is the payload written in store benchmarks: roughly the size
// of a policy link or pairing record.
type benchEntity struct {
	Owner string `json:"owner"`
	Realm string `json:"realm"`
	Seq   int    `json:"seq"`
}

// BenchmarkStoreShardedMixedRW drives concurrent readers+writers across the
// lock-striped shards of a memory store (the AM's hot path: policy lookups
// interleaved with pairing/token writes).
func BenchmarkStoreShardedMixedRW(b *testing.B) {
	for _, bench := range []struct {
		name       string
		writeEvery int // 1 write per N ops
	}{
		{"read-heavy-90-10", 10},
		{"write-heavy-50-50", 2},
	} {
		b.Run(bench.name, func(b *testing.B) {
			s := store.New()
			const keys = 16384
			for i := 0; i < keys; i++ {
				if _, err := s.Put("link", fmt.Sprintf("k%05d", i), benchEntity{Owner: "bob", Seq: i}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				var e benchEntity
				for pb.Next() {
					key := fmt.Sprintf("k%05d", i%keys)
					if i%bench.writeEvery == 0 {
						if _, err := s.Put("link", key, benchEntity{Owner: "bob", Seq: i}); err != nil {
							b.Fatal(err)
						}
					} else {
						if _, err := s.Get("link", key, &e); err != nil {
							b.Fatal(err)
						}
					}
					i++
				}
			})
		})
	}
}

// BenchmarkStoreWALAppend measures acknowledged-durable write throughput:
// every Put is on disk (in the page cache; fsync variant forces the platter)
// before it returns.
func BenchmarkStoreWALAppend(b *testing.B) {
	run := func(b *testing.B, opts ...store.Option) {
		s, err := store.Open(filepath.Join(b.TempDir(), "state.json"), opts...)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Put("link", fmt.Sprintf("k%06d", i), benchEntity{Owner: "bob", Seq: i}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("buffered", func(b *testing.B) { run(b) })
	b.Run("parallel", func(b *testing.B) {
		s, err := store.Open(filepath.Join(b.TempDir(), "state.json"))
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := s.Put("link", fmt.Sprintf("w%p-%d", pb, i), benchEntity{Seq: i}); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
	b.Run("fsync", func(b *testing.B) { run(b, store.WithFsync()) })
}

// BenchmarkStoreGroupCommit measures fsynced write throughput as writer
// parallelism grows. Every Put is durable before it returns (WithFsync),
// but concurrent writers are group-committed: the committer lands whatever
// queued during the previous batch's fsync with a single write and a
// single fsync, so ns/op at writers-16 should sit far below the serial
// per-write-fsync baseline (BenchmarkStoreWALAppend/fsync). On a
// multi-core box RunParallel spawns GOMAXPROCS×parallelism goroutines, so
// writer counts are exact only where GOMAXPROCS divides them (on the 1-CPU
// benchmark container they always are).
func BenchmarkStoreGroupCommit(b *testing.B) {
	gomax := runtime.GOMAXPROCS(0)
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers-%d", writers), func(b *testing.B) {
			s, err := store.Open(filepath.Join(b.TempDir(), "state.json"), store.WithFsync())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			par := writers / gomax
			if par < 1 {
				par = 1
			}
			b.SetParallelism(par)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := s.Put("link", fmt.Sprintf("w%p-%d", pb, i), benchEntity{Seq: i}); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkStoreRecovery measures Open (snapshot load + WAL replay) against
// a log of acknowledged-but-never-snapshot writes: the crash-recovery cost
// as a function of log size.
func BenchmarkStoreRecovery(b *testing.B) {
	for _, records := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("wal-records-%d", records), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "state.json")
			s, err := store.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < records; i++ {
				if _, err := s.Put("link", fmt.Sprintf("k%06d", i), benchEntity{Owner: "bob", Seq: i}); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := store.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				if r.Count("link") != records {
					b.Fatal("incomplete replay")
				}
				if err := r.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreSnapshotCompaction measures the compaction point itself:
// snapshotting a populated store and truncating its WAL.
func BenchmarkStoreSnapshotCompaction(b *testing.B) {
	path := filepath.Join(b.TempDir(), "state.json")
	s, err := store.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10000; i++ {
		if _, err := s.Put("link", fmt.Sprintf("k%06d", i), benchEntity{Owner: "bob", Seq: i}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put("link", "dirty", benchEntity{Seq: i}); err != nil {
			b.Fatal(err)
		}
		if err := s.Snapshot(path); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E14: the batched decision path and scoped cache invalidation ---

// decisionBenchFixture builds the batch-bench world: n readable resources,
// a realm token for alice, and the request presenting it.
func decisionBenchFixture(b *testing.B, n int) (*sim.World, *sim.SimpleHost, []pep.ResourceAction, *http.Request) {
	b.Helper()
	w, h := benchWorld(b, n)
	pairs := make([]pep.ResourceAction, n)
	for i := 0; i < n; i++ {
		pairs[i] = pep.ResourceAction{Resource: core.ResourceID(fmt.Sprintf("photo-%04d", i)), Action: core.ActionRead}
	}
	tok, err := w.AM.IssueToken(core.TokenRequest{
		Requester: "alice-browser", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "photo-0000", Action: core.ActionRead,
	})
	if err != nil {
		b.Fatal(err)
	}
	return w, h, pairs, sim.TokenRequestFor(tok.Token)
}

// BenchmarkDecisionBatchVsSingle is the tentpole measurement: resolving N
// cold (resource, action) pairs with one batched round-trip versus N
// per-pair decision queries. The am-rt/op metric is the AM round-trip count
// per iteration — batch must sit at 1 where single sits at N.
func BenchmarkDecisionBatchVsSingle(b *testing.B) {
	const n = 16
	b.Run(fmt.Sprintf("single-%d", n), func(b *testing.B) {
		w, h, pairs, req := decisionBenchFixture(b, n)
		w.ResetWire()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Enforcer.Cache().Invalidate()
			for _, pr := range pairs {
				res, err := h.Enforcer.Check(req, "bob", "travel", pr.Resource, pr.Action)
				if err != nil || res.Verdict != pep.VerdictAllow {
					b.Fatalf("res=%+v err=%v", res, err)
				}
			}
		}
		b.ReportMetric(float64(w.AMRequests())/float64(b.N), "am-rt/op")
	})
	b.Run(fmt.Sprintf("batch-%d", n), func(b *testing.B) {
		w, h, pairs, req := decisionBenchFixture(b, n)
		w.ResetWire()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Enforcer.Cache().Invalidate()
			results, err := h.Enforcer.CheckBatch(req, "bob", "travel", pairs)
			if err != nil {
				b.Fatal(err)
			}
			for _, res := range results {
				if res.Verdict != pep.VerdictAllow {
					b.Fatalf("res=%+v", res)
				}
			}
		}
		b.ReportMetric(float64(w.AMRequests())/float64(b.N), "am-rt/op")
	})
}

// BenchmarkDecisionScopedInvalidation measures the cost of one unrelated
// policy change against a hot cache: the change reaches the Host as a
// scoped event on its invalidation stream, the hot entries survive, and
// the AM sees no decision re-queries (am-rt/op stays 0).
func BenchmarkDecisionScopedInvalidation(b *testing.B) {
	const hot = 32
	w, h, pairs, req := decisionBenchFixture(b, hot)
	// An unrelated realm whose policy churns each iteration.
	coldPol, err := w.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Name: "cold", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{Effect: policy.EffectDeny, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.AM.LinkGeneral("bob", "cold-realm", coldPol.ID); err != nil {
		b.Fatal(err)
	}
	// Subscribe after the setup mutations, so none of their events races
	// the warmup fill.
	if err := h.Enforcer.StartInvalidationStream("bob"); err != nil {
		b.Fatal(err)
	}
	warm := func() {
		if _, err := h.Enforcer.CheckBatch(req, "bob", "travel", pairs); err != nil {
			b.Fatal(err)
		}
	}
	warm()
	w.ResetWire()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldPol.Name = fmt.Sprintf("cold-%d", i)
		gen := h.Enforcer.Cache().Gen()
		if err := w.AM.UpdatePolicy("bob", coldPol); err != nil {
			b.Fatal(err)
		}
		if err := sim.AwaitInvalidation(h.Enforcer.Cache(), gen); err != nil {
			b.Fatal(err)
		}
		warm()
	}
	b.ReportMetric(float64(w.AMRequests())/float64(b.N), "am-rt/op")
}

// BenchmarkDecisionCacheLRU exercises the shard-striped LRU under capacity
// pressure: every put on a full cache evicts.
func BenchmarkDecisionCacheLRU(b *testing.B) {
	c := pep.NewDecisionCacheCap(1024)
	keys := make([]string, 4096) // 4x capacity
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			key := keys[i%len(keys)]
			if i%4 == 0 {
				c.Put(key, true, 3600)
			} else {
				c.Get(key)
			}
			i++
		}
	})
	b.ReportMetric(float64(c.Evictions())/float64(b.N), "evictions/op")
}

func BenchmarkDecisionCache(b *testing.B) {
	c := pep.NewDecisionCache()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		c.Put(keys[i], true, 3600)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}

// --- E15: WAL-shipping replication — apply throughput, visibility lag,
// read scaling across replicas ---

// replBenchSecret / replBenchKey are the shared deployment secrets of the
// replication benchmarks.
const replBenchSecret = "bench-repl-secret"

var replBenchKey = []byte("bench-shared-token-key-012345678")

// BenchmarkReplicationApplyThroughput measures the follower's apply path in
// isolation: records/s a follower sustains installing an already-fetched
// WAL stream into its store (ns/op is per record).
func BenchmarkReplicationApplyThroughput(b *testing.B) {
	primary := store.New()
	primary.EnableReplication(b.N + 1)
	for i := 0; i < b.N; i++ {
		if _, err := primary.Put("link", fmt.Sprintf("k%08d", i), benchEntity{Owner: "bob", Seq: i}); err != nil {
			b.Fatal(err)
		}
	}
	records, _, err := primary.TailSince(0, b.N)
	if err != nil {
		b.Fatal(err)
	}
	follower := store.New()
	b.ResetTimer()
	for _, rec := range records {
		if err := follower.ApplyReplicated(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if follower.LastSeq() != primary.LastSeq() {
		b.Fatalf("follower at %d, primary at %d", follower.LastSeq(), primary.LastSeq())
	}
}

// replBenchWorld starts a primary AM with the standard pairing fixture and
// n-1 followers syncing from it over HTTP, returning one signed decision
// client per node (primary first).
func replBenchWorld(b *testing.B, nodes int) (*am.AM, []*am.AM, []*amclient.Client, core.DecisionQuery) {
	b.Helper()
	primary := am.New(am.Config{
		Name: "am-primary", TokenKey: replBenchKey,
		Replication: am.ReplicationConfig{Role: am.RolePrimary, Secret: replBenchSecret},
	})
	primarySrv := httptest.NewServer(primary.Handler())
	primary.SetBaseURL(primarySrv.URL)
	b.Cleanup(func() { primarySrv.Close(); primary.Close() })

	code, err := primary.ApprovePairing(core.PairingRequest{Host: "webpics", User: "bob"})
	if err != nil {
		b.Fatal(err)
	}
	pairing, err := primary.ExchangeCode(code, "webpics")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := primary.RegisterRealm(pairing.PairingID, core.ProtectRequest{Realm: "travel"}); err != nil {
		b.Fatal(err)
	}
	pol, err := primary.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: "alice"}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := primary.LinkGeneral("bob", "travel", pol.ID); err != nil {
		b.Fatal(err)
	}
	tok, err := primary.IssueToken(core.TokenRequest{
		Requester: "alice-browser", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "photo", Action: core.ActionRead,
	})
	if err != nil {
		b.Fatal(err)
	}

	clients := []*amclient.Client{amclient.New(amclient.Config{
		BaseURL: primarySrv.URL, PairingID: pairing.PairingID, Secret: pairing.Secret,
	})}
	var followers []*am.AM
	for i := 1; i < nodes; i++ {
		f := am.New(am.Config{
			Name: fmt.Sprintf("am-follower-%d", i), TokenKey: replBenchKey,
			Replication: am.ReplicationConfig{
				Role: am.RoleFollower, Secret: replBenchSecret,
				PrimaryURL: primarySrv.URL, PollWait: 100 * time.Millisecond,
			},
		})
		srv := httptest.NewServer(f.Handler())
		f.SetBaseURL(srv.URL)
		b.Cleanup(func() { srv.Close(); f.Close() })
		if !f.WaitReplicated(primary.Store().LastSeq(), 10*time.Second) {
			b.Fatal("follower never caught up during setup")
		}
		followers = append(followers, f)
		clients = append(clients, amclient.New(amclient.Config{
			BaseURL: srv.URL, PairingID: pairing.PairingID, Secret: pairing.Secret,
		}))
	}
	q := core.DecisionQuery{
		Host: "webpics", Realm: "travel", Resource: "photo",
		Action: core.ActionRead, Token: tok.Token,
	}
	return primary, followers, clients, q
}

// BenchmarkReplicationVisibilityLag measures primary→follower visibility
// over real HTTP: per iteration one write is acknowledged by the primary
// and the clock stops when the follower has applied it. Reports the mean
// as ns/op and the p99 as a custom metric.
func BenchmarkReplicationVisibilityLag(b *testing.B) {
	primary, followers, _, _ := replBenchWorld(b, 2)
	follower := followers[0]
	lags := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := primary.Store().Put("bench", fmt.Sprintf("k%08d", i), benchEntity{Seq: i}); err != nil {
			b.Fatal(err)
		}
		target := primary.Store().LastSeq()
		for follower.Store().LastSeq() < target {
			time.Sleep(50 * time.Microsecond)
		}
		lags = append(lags, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	b.ReportMetric(float64(lags[len(lags)*99/100]), "p99-visibility-ns")
}

// BenchmarkReplicaDecisionReadScaling measures decision read throughput as
// replicas join: the same signed decision query spread round-robin across
// 1, 2 and 3 serving nodes (primary plus followers). ns/op is the
// per-decision latency of the whole fleet under parallel load.
func BenchmarkReplicaDecisionReadScaling(b *testing.B) {
	for _, nodes := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("replicas-%d", nodes), func(b *testing.B) {
			_, _, clients, q := replBenchWorld(b, nodes)
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c := clients[int(next.Add(1))%len(clients)]
				for pb.Next() {
					dec, err := c.Decide(q)
					if err != nil {
						b.Fatal(err)
					}
					if !dec.Permit() {
						b.Fatalf("deny: %+v", dec)
					}
				}
			})
		})
	}
}

// --- E16: sharded cluster — aggregate decision+mutation throughput on
// disjoint owners, one primary versus a two-shard cluster ---

// clusterBenchOwner is one owner's shared loadgen fixture plus a private
// write counter.
type clusterBenchOwner struct {
	*loadgen.OwnerRig
	seq atomic.Int64
}

// clusterBenchSecret is the benchmark deployment's shared secret.
const clusterBenchSecret = "bench-cluster-secret"

// clusterBenchWorld starts one durable primary AM per named shard, all on
// one consistent-hash ring, and returns owners (two per shard, plus
// enough extras to reach four total in the single-shard case) with their
// protocol fixtures and shard-aware clients.
func clusterBenchWorld(b *testing.B, shardNames []string) []*clusterBenchOwner {
	b.Helper()
	srvs := make(map[string]*httptest.Server, len(shardNames))
	var shards []core.ShardInfo
	for _, name := range shardNames {
		srv := httptest.NewUnstartedServer(nil)
		srv.Start()
		b.Cleanup(srv.Close)
		srvs[name] = srv
		shards = append(shards, core.ShardInfo{
			Name: name, Primary: srv.URL, Endpoints: []string{srv.URL},
		})
	}
	ring, err := cluster.New(shards, 0)
	if err != nil {
		b.Fatal(err)
	}
	ams := make(map[string]*am.AM, len(shardNames))
	for _, s := range shards {
		// Fsynced WAL: the acknowledged-durable write path of a production
		// primary. Durability serializes every mutation behind one log per
		// shard — exactly the per-primary ceiling sharding is meant to
		// multiply.
		st, err := store.Open(filepath.Join(b.TempDir(), "state.json"), store.WithFsync())
		if err != nil {
			b.Fatal(err)
		}
		a := am.New(am.Config{
			Name: "am-" + s.Name, BaseURL: s.Primary, Store: st, TokenKey: replBenchKey,
			Replication: am.ReplicationConfig{Role: am.RolePrimary, Secret: clusterBenchSecret},
			Cluster:     am.ClusterConfig{Shard: s.Name, Ring: ring},
		})
		b.Cleanup(func() { a.Close(); st.Close() })
		ams[s.Name] = a
		srvs[s.Name].Config.Handler = a.Handler()
	}

	// Four owners, spread evenly across the shards (all on the one shard
	// in the single-primary case — same owner count, same fixture, only
	// the partitioning differs).
	perShard := 4 / len(shardNames)
	var owners []*clusterBenchOwner
	counts := make(map[string]int, len(shardNames))
	for i := 0; len(owners) < 4; i++ {
		owner := core.UserID(fmt.Sprintf("user-%d", i))
		home := ring.Owner(owner).Name
		if counts[home] >= perShard {
			continue
		}
		counts[home]++
		rig, err := loadgen.SetupOwner(amclient.Config{BaseURL: shards[0].Primary}, owner)
		if err != nil {
			b.Fatal(err)
		}
		o := &clusterBenchOwner{OwnerRig: rig}
		owners = append(owners, o)
	}
	return owners
}

// BenchmarkClusterShardedThroughput is the E16 tentpole measurement: a
// mixed decision+mutation workload over four disjoint owners, against one
// primary versus a two-shard cluster. Every op is one shard-routed HTTP
// call, three durable policy writes to every signed decision (the write
// path is what sharding multiplies); ns/op is the aggregate per-op
// latency of the whole fleet under parallel load. The acceptance bar is two-shards sustaining >= 1.8x the
// single-primary throughput.
func BenchmarkClusterShardedThroughput(b *testing.B) {
	run := func(b *testing.B, shardNames []string) {
		owners := clusterBenchWorld(b, shardNames)
		var next atomic.Int64
		// Far more in-flight requests than cores: the write path's fsync is
		// disk wait, not CPU, so a saturated primary has its mutation
		// throughput pinned by its single serialized WAL stream — the
		// ceiling a second shard doubles.
		b.SetParallelism(16)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			slot := int(next.Add(1))
			i := 0
			for pb.Next() {
				o := owners[(slot+i)%len(owners)]
				if i%4 != 0 {
					if _, err := o.WritePolicy(int(o.seq.Add(1))); err != nil {
						b.Fatal(err)
					}
				} else {
					if err := o.Decide(); err != nil {
						b.Fatal(err)
					}
				}
				i++
			}
		})
	}
	b.Run("single-primary", func(b *testing.B) {
		run(b, []string{"bench-a"})
	})
	b.Run("two-shards", func(b *testing.B) {
		run(b, []string{"bench-a", "bench-b"})
	})
}

// BenchmarkClusterMigrateOwner measures the live-migration drill itself:
// one owner with a populated closure (64 policies + links) moved between
// the two shards of a running cluster, per iteration (alternating
// directions so each run starts clean).
func BenchmarkClusterMigrateOwner(b *testing.B) {
	owners := clusterBenchWorld(b, []string{"bench-a", "bench-b"})
	o := owners[0]
	for i := 0; i < 64; i++ {
		if _, err := o.WritePolicy(100000 + i); err != nil {
			b.Fatal(err)
		}
	}
	info := o.Decider.Info()
	urls := make(map[string]string, len(info.Shards))
	for _, s := range info.Shards {
		urls[s.Name] = s.Primary
	}
	from := clusterRingOwner(info, o.Owner)
	to := "bench-a"
	if from == "bench-a" {
		to = "bench-b"
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := amclient.New(amclient.Config{BaseURL: urls[from], ReplSecret: clusterBenchSecret})
		dst := amclient.New(amclient.Config{BaseURL: urls[to], ReplSecret: clusterBenchSecret})
		if _, err := amclient.MigrateOwner(src, dst, o.Owner, to, nil); err != nil {
			b.Fatal(err)
		}
		from, to = to, from
	}
}

// clusterRingOwner recomputes an owner's home shard from a ClusterInfo.
func clusterRingOwner(info core.ClusterInfo, owner core.UserID) string {
	ring, err := cluster.New(info.Shards, info.Vnodes)
	if err != nil {
		return ""
	}
	return ring.Owner(owner).Name
}

// --- E17: the spawned-binary load harness (internal/loadgen) ---

// BenchmarkLoadgenSpawnedDecision measures the shard-routed decision path
// against REAL spawned amserver processes — the process-boundary
// counterpart of BenchmarkClusterShardedThroughput's in-process number.
// The gap between the two is pure transport + scheduling overhead. The
// end-to-end decision trajectory is benchmark/'s decide_miss workload
// (docs/BENCHMARKS.md).
func BenchmarkLoadgenSpawnedDecision(b *testing.B) {
	ctx := b.Context()
	binary, err := loadgen.BuildServer(ctx, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rig, err := loadgen.StartCluster(ctx, binary, b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer rig.Stop()
	owner := rig.OwnersFor("bench", "shard-a", 1)[0]
	o, err := loadgen.SetupOwner(rig.ClientConfig(), owner)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := o.Decide(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E18: the compiled decision index — candidate pre-filter vs rule scan ---

// decisionIndexPolicy builds a general policy whose first rules-1 rules
// cover only write (noise for a read query) with one permit-read rule for
// alice at the end: the compiled read candidate list holds a single rule
// while the scan path must test coversAction on every one.
func decisionIndexPolicy(rules int) policy.Policy {
	p := policy.Policy{Owner: "bob", Kind: policy.KindGeneral, Name: "bench"}
	for i := 0; i < rules-1; i++ {
		p.Rules = append(p.Rules, policy.Rule{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: fmt.Sprintf("user-%d", i)}},
			Actions:  []core.Action{core.ActionWrite},
		})
	}
	p.Rules = append(p.Rules, policy.Rule{
		Effect:   policy.EffectPermit,
		Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: "alice"}},
		Actions:  []core.Action{core.ActionRead},
	})
	return p
}

// BenchmarkDecisionIndex measures the compiled decision index at two
// layers. engine-*: policy.EvaluateCompiled against policy.Evaluate on the
// same wide policy — the pure candidate-pre-filter win. am-compiled: AM.Decide
// end to end through the lazy per-link index.
func BenchmarkDecisionIndex(b *testing.B) {
	const rules = 128
	req := policy.Request{
		Subject: "alice", Action: core.ActionRead, Owner: "bob", Realm: "travel",
		Resource: core.ResourceRef{Host: "h", Resource: "r"},
	}
	pol := decisionIndexPolicy(rules)
	e := policy.NewEngine(nil)
	b.Run(fmt.Sprintf("engine-scan-rules-%d", rules), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := e.Evaluate(req, &pol, nil); res.Decision != core.DecisionPermit {
				b.Fatal("deny")
			}
		}
	})
	b.Run(fmt.Sprintf("engine-compiled-rules-%d", rules), func(b *testing.B) {
		c := policy.Compile(&pol)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := e.EvaluateCompiled(req, c, nil); res.Decision != core.DecisionPermit {
				b.Fatal("deny")
			}
		}
	})

	b.Run(fmt.Sprintf("am-compiled-rules-%d", rules), func(b *testing.B) {
		a := am.New(am.Config{
			Name:     "bench-am",
			TokenKey: []byte("bench-master-key-0123456789abcde"),
		})
		defer a.Close()
		code, err := a.ApprovePairing(core.PairingRequest{Host: "webpics", User: "bob"})
		if err != nil {
			b.Fatal(err)
		}
		pairing, err := a.ExchangeCode(code, "webpics")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.RegisterRealm(pairing.PairingID, core.ProtectRequest{Realm: "travel"}); err != nil {
			b.Fatal(err)
		}
		created, err := a.CreatePolicy("bob", decisionIndexPolicy(rules))
		if err != nil {
			b.Fatal(err)
		}
		if err := a.LinkGeneral("bob", "travel", created.ID); err != nil {
			b.Fatal(err)
		}
		tok, err := a.IssueToken(core.TokenRequest{
			Requester: "alice-browser", Subject: "alice", Host: "webpics",
			Realm: "travel", Resource: "photo-1", Action: core.ActionRead,
		})
		if err != nil {
			b.Fatal(err)
		}
		q := core.DecisionQuery{
			Host: "webpics", Realm: "travel", Resource: "photo-1",
			Action: core.ActionRead, Token: tok.Token,
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec, err := a.Decide(pairing.PairingID, q)
			if err != nil || !dec.Permit() {
				b.Fatalf("dec=%+v err=%v", dec, err)
			}
		}
	})
}

// BenchmarkRebalancePlan measures the pure planner over a populated ring:
// diffing old-vs-target ownership for every owner and emitting the minimal
// move set when the ring grows by one shard. This is the CPU-bound slice of
// a rebalance start (the migrations themselves are network-bound); it must
// stay cheap enough to run inline in the POST /v1/rebalance handler.
func BenchmarkRebalancePlan(b *testing.B) {
	for _, owners := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("owners-%d", owners), func(b *testing.B) {
			shards := []core.ShardInfo{
				{Name: "shard-a", Primary: "http://a"},
				{Name: "shard-b", Primary: "http://b"},
				{Name: "shard-c", Primary: "http://c"},
			}
			ring, err := cluster.New(shards, 64)
			if err != nil {
				b.Fatal(err)
			}
			byShard := make(map[string][]core.UserID, len(shards))
			for i := 0; i < owners; i++ {
				o := core.UserID(fmt.Sprintf("owner-%06d", i))
				name := ring.Owner(o).Name
				byShard[name] = append(byShard[name], o)
			}
			target := ring.State()
			target.Version = 1
			target.Shards = append(append([]core.ShardInfo(nil), target.Shards...),
				core.ShardInfo{Name: "shard-d", Primary: "http://d"})
			req := core.RebalanceRequest{Target: target}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := rebalance.BuildPlan(req, byShard)
				if err != nil {
					b.Fatal(err)
				}
				if len(plan.Moves) == 0 {
					b.Fatal("empty plan")
				}
			}
		})
	}
}
