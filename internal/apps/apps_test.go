// Package apps_test integration-tests the two prototype Hosts of Section
// VI against a live AM: built-in ACL mode, delegated UMAC mode, and the
// cross-Host flows where each application acts as a Requester against the
// other (gallery imports from storage; storage backs up gallery albums).
package apps_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image"
	"image/color"
	"net/http"
	"net/http/httptest"
	"testing"

	"umac/internal/apps/gallery"
	"umac/internal/apps/storage"
	"umac/internal/core"
	"umac/internal/identity"
	"umac/internal/policy"
	"umac/internal/requester"
	"umac/internal/sim"
	"umac/internal/store"
)

// fixture is a full two-app deployment.
type fixture struct {
	world      *sim.World
	storage    *storage.App
	storageSrv *httptest.Server
	gallery    *gallery.App
	gallerySrv *httptest.Server
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	w := sim.NewWorld()
	t.Cleanup(w.Close)

	// Cleanups run last-registered first: each app closes its invalidation
	// streams before the AM server (registered above) is shut down.
	st := storage.New(storage.Config{HostID: "storage"})
	stSrv := w.Serve("storage", st.Handler())
	t.Cleanup(stSrv.Close)
	t.Cleanup(func() { st.Close() })
	st.Enforcer.SetBaseURL(stSrv.URL)

	g := gallery.New(gallery.Config{HostID: "gallery"})
	gSrv := w.Serve("gallery", g.Handler())
	t.Cleanup(gSrv.Close)
	t.Cleanup(func() { g.Close() })
	g.Enforcer.SetBaseURL(gSrv.URL)

	return &fixture{world: w, storage: st, storageSrv: stSrv, gallery: g, gallerySrv: gSrv}
}

func pngBytes(t *testing.T) []byte {
	t.Helper()
	img := image.NewRGBA(image.Rect(0, 0, 6, 4))
	for y := 0; y < 4; y++ {
		for x := 0; x < 6; x++ {
			img.Set(x, y, color.RGBA{R: uint8(40 * x), G: uint8(60 * y), B: 128, A: 255})
		}
	}
	data, err := gallery.EncodePNG(img)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// asUser issues a request authenticated as the given user via the identity
// header (simulated login).
func asUser(t *testing.T, user, method, url string, body []byte) *http.Response {
	t.Helper()
	var rdr *bytes.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(identity.DefaultUserHeader, user)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestStorageBuiltinACLMode(t *testing.T) {
	f := newFixture(t)
	f.storage.Tree("bob").Put("/travel/notes.txt", []byte("secret notes"))

	// Owner reads their own file.
	resp := asUser(t, "bob", http.MethodGet, f.storageSrv.URL+"/files/bob/travel/notes.txt", nil)
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("owner read status = %d", resp.StatusCode)
	}
	// A stranger is denied by the built-in matrix.
	resp2 := asUser(t, "mallory", http.MethodGet, f.storageSrv.URL+"/files/bob/travel/notes.txt", nil)
	defer resp2.Body.Close()
	if resp2.StatusCode != 403 {
		t.Fatalf("stranger status = %d", resp2.StatusCode)
	}
	// After a local grant (the pre-UMAC workflow) alice can read.
	f.storage.ACL.Grant("bob", "/travel/notes.txt", "alice", core.ActionRead)
	resp3 := asUser(t, "alice", http.MethodGet, f.storageSrv.URL+"/files/bob/travel/notes.txt", nil)
	defer resp3.Body.Close()
	if resp3.StatusCode != 200 {
		t.Fatalf("granted alice status = %d", resp3.StatusCode)
	}
}

// delegateStorage pairs bob's storage account with the AM and protects the
// travel realm with a friends-read policy.
func delegateStorage(t *testing.T, f *fixture) {
	t.Helper()
	bob := sim.NewUserAgent("bob")
	if err := bob.PairEnforcer(f.storage.Enforcer, f.world.AMServer.URL); err != nil {
		t.Fatal(err)
	}
	if err := f.storage.Enforcer.Protect("bob", "travel", nil, ""); err != nil {
		t.Fatal(err)
	}
	p, err := f.world.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect: policy.EffectPermit,
			Subjects: []policy.Subject{
				{Type: policy.SubjectGroup, Name: "friends"},
				{Type: policy.SubjectOwner},
				{Type: policy.SubjectRequester, Name: "gallery"},
			},
			Actions: []core.Action{core.ActionRead, core.ActionList},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.world.AM.LinkGeneral("bob", "travel", p.ID); err != nil {
		t.Fatal(err)
	}
	if err := f.world.AM.AddGroupMember("bob", "bob", "friends", "alice"); err != nil {
		t.Fatal(err)
	}
}

func TestStorageDelegatedMode(t *testing.T) {
	f := newFixture(t)
	f.storage.Tree("bob").Put("/travel/notes.txt", []byte("trip notes"))
	delegateStorage(t, f)

	// Plain authenticated browsing no longer suffices: the protocol takes
	// over and a tokenless request gets the 401 referral.
	resp := asUser(t, "alice", http.MethodGet, f.storageSrv.URL+"/files/bob/travel/notes.txt", nil)
	defer resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Fatalf("tokenless status = %d", resp.StatusCode)
	}
	// The requester library completes the flow for friend alice.
	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	body, err := alice.Fetch(storage.FileURL(f.storageSrv.URL, "bob", "/travel/notes.txt"), core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "trip notes" {
		t.Fatalf("body = %q", body)
	}
	// Stranger denied by the AM.
	mallory := requester.New(requester.Config{ID: "m", Subject: "mallory"})
	if _, err := mallory.Fetch(storage.FileURL(f.storageSrv.URL, "bob", "/travel/notes.txt"), core.ActionRead); err == nil {
		t.Fatal("mallory read the protected file")
	}
}

func TestStorageDirectoryListingDelegated(t *testing.T) {
	f := newFixture(t)
	f.storage.Tree("bob").Put("/travel/a.txt", []byte("1"))
	f.storage.Tree("bob").Put("/travel/b.txt", []byte("2"))
	delegateStorage(t, f)

	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	body, err := alice.Fetch(f.storageSrv.URL+"/dirs/bob/travel", core.ActionList)
	if err != nil {
		t.Fatal(err)
	}
	var entries []storage.Entry
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %+v", entries)
	}
}

func TestGalleryUploadAndEditDelegated(t *testing.T) {
	f := newFixture(t)
	bob := sim.NewUserAgent("bob")
	if err := bob.PairEnforcer(f.gallery.Enforcer, f.world.AMServer.URL); err != nil {
		t.Fatal(err)
	}
	if err := f.gallery.Enforcer.Protect("bob", "holiday", nil, ""); err != nil {
		t.Fatal(err)
	}
	p, _ := f.world.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{
			{
				Effect:   policy.EffectPermit,
				Subjects: []policy.Subject{{Type: policy.SubjectOwner}},
			},
			{
				Effect:   policy.EffectPermit,
				Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: "alice"}},
				Actions:  []core.Action{core.ActionRead, core.ActionList},
			},
		},
	})
	if err := f.world.AM.LinkGeneral("bob", "holiday", p.ID); err != nil {
		t.Fatal(err)
	}

	photo := pngBytes(t)
	// Bob uploads through the protocol (the owner rule permits write): the
	// PUT carries a token bob's browser obtained from the AM.
	bobClient := requester.New(requester.Config{ID: "bob-browser", Subject: "bob"})
	url := gallery.PhotoURL(f.gallerySrv.URL, "bob", "holiday", "beach.png")
	tok, err := bobClient.ObtainToken(f.world.AMServer.URL, "gallery", "holiday", "holiday/beach.png", core.ActionWrite)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, url, bytes.NewReader(photo))
	req.Header.Set("Authorization", "UMAC "+tok)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("upload status = %d", resp2.StatusCode)
	}

	// Alice reads the photo through the protocol.
	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	got, err := alice.Fetch(url, core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, photo) {
		t.Fatal("photo bytes mismatch")
	}
	// Alice cannot edit (read-only rule): the edit endpoint denies.
	editBody, _ := json.Marshal(gallery.EditParams{Op: gallery.OpRotate90})
	editResp, err := alice.Post(url+"/edit", "application/json", editBody, core.ActionWrite)
	if err == nil {
		defer editResp.Body.Close()
		if editResp.StatusCode != 401 && editResp.StatusCode != 403 {
			t.Fatalf("alice edit status = %d", editResp.StatusCode)
		}
	}
	// Bob edits: rotate90 flips dimensions 6x4 → 4x6.
	if err := f.gallery.Edit("bob", "holiday", "beach.png", gallery.EditParams{Op: gallery.OpRotate90}); err != nil {
		t.Fatal(err)
	}
	data, err := f.gallery.Photo("bob", "holiday", "beach.png")
	if err != nil {
		t.Fatal(err)
	}
	img, err := gallery.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 4 || img.Bounds().Dy() != 6 {
		t.Fatalf("bounds after rotate = %v", img.Bounds())
	}
}

func TestGalleryImportsFromStorage(t *testing.T) {
	// Section VI: "users can store photos in their online storage service
	// and can load them to the photo gallery" — the gallery acts as a
	// Requester against the storage Host.
	f := newFixture(t)
	photo := pngBytes(t)
	f.storage.Tree("bob").Put("/travel/beach.png", photo)
	delegateStorage(t, f) // permits requester:gallery to read travel

	resp := asUser(t, "bob", http.MethodPost, f.gallerySrv.URL+"/import", mustJSON(t, map[string]string{
		"url":   storage.FileURL(f.storageSrv.URL, "bob", "/travel/beach.png"),
		"album": "imported",
		"photo": "beach.png",
	}))
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("import status = %d", resp.StatusCode)
	}
	got, err := f.gallery.Photo("bob", "imported", "beach.png")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, photo) {
		t.Fatal("imported bytes mismatch")
	}
}

func TestStorageBacksUpGallery(t *testing.T) {
	// The reverse flow: "it may act as a backup service for online photo
	// albums" — storage as Requester against the gallery Host.
	f := newFixture(t)
	photo := pngBytes(t)
	if err := f.gallery.AddPhoto("bob", "holiday", "sunset.png", photo); err != nil {
		t.Fatal(err)
	}
	// Delegate the gallery and permit requester:storage to read holiday.
	bob := sim.NewUserAgent("bob")
	if err := bob.PairEnforcer(f.gallery.Enforcer, f.world.AMServer.URL); err != nil {
		t.Fatal(err)
	}
	if err := f.gallery.Enforcer.Protect("bob", "holiday", nil, ""); err != nil {
		t.Fatal(err)
	}
	p, _ := f.world.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectRequester, Name: "storage"}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err := f.world.AM.LinkGeneral("bob", "holiday", p.ID); err != nil {
		t.Fatal(err)
	}

	resp := asUser(t, "bob", http.MethodPost, f.storageSrv.URL+"/backup", mustJSON(t, map[string]string{
		"url":       gallery.PhotoURL(f.gallerySrv.URL, "bob", "holiday", "sunset.png"),
		"dest_path": "/backups/sunset.png",
	}))
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("backup status = %d: %s", resp.StatusCode, readBody(resp))
	}
	got, err := f.storage.Tree("bob").Get("/backups/sunset.png")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, photo) {
		t.Fatal("backup bytes mismatch")
	}
}

// TestGalleryRevocationReachesHostImmediately: the gallery subscribed
// bob's invalidation stream when his pairing callback completed, so
// revoking the policy at the AM denies the very next read — no waiting out
// the decision-cache TTL (60s by default).
func TestGalleryRevocationReachesHostImmediately(t *testing.T) {
	f := newFixture(t)
	if err := f.gallery.AddPhoto("bob", "holiday", "sunset.png", pngBytes(t)); err != nil {
		t.Fatal(err)
	}
	bob := sim.NewUserAgent("bob")
	if err := bob.PairEnforcer(f.gallery.Enforcer, f.world.AMServer.URL); err != nil {
		t.Fatal(err)
	}
	if err := f.gallery.Enforcer.Protect("bob", "holiday", nil, ""); err != nil {
		t.Fatal(err)
	}
	p, err := f.world.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: "alice"}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cache := f.gallery.Enforcer.Cache()
	// The link's own event arriving proves the stream is live, and waiting
	// for it keeps it from evicting the read cached below.
	gen := cache.Gen()
	if err := f.world.AM.LinkGeneral("bob", "holiday", p.ID); err != nil {
		t.Fatal(err)
	}
	if err := sim.AwaitInvalidation(cache, gen); err != nil {
		t.Fatal(err)
	}

	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	url := gallery.PhotoURL(f.gallerySrv.URL, "bob", "holiday", "sunset.png")
	if _, err := alice.Fetch(url, core.ActionRead); err != nil {
		t.Fatal(err)
	}
	if n := cache.Len(); n != 1 {
		t.Fatalf("cache len = %d, want the permit cached", n)
	}

	gen = cache.Gen()
	if err := f.world.AM.DeletePolicy("bob", p.ID); err != nil {
		t.Fatal(err)
	}
	if err := sim.AwaitInvalidation(cache, gen); err != nil {
		t.Fatal(err)
	}
	resp, err := alice.Get(url, core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read after revocation = %d, want 403", resp.StatusCode)
	}
}

// TestRestartedGalleryResubscribes: a gallery rebuilt over its pairing
// store gets its reloaded pairings' invalidation streams back through
// SubscribeAll, so a revocation at the AM evicts the restarted Host's
// cached permit at once rather than at TTL expiry.
func TestRestartedGalleryResubscribes(t *testing.T) {
	w := sim.NewWorld()
	t.Cleanup(w.Close)
	pairings := store.New()

	first := gallery.New(gallery.Config{HostID: "gallery", PairingStore: pairings})
	firstSrv := httptest.NewServer(first.Handler())
	first.Enforcer.SetBaseURL(firstSrv.URL)
	if err := sim.NewUserAgent("bob").PairEnforcer(first.Enforcer, w.AMServer.URL); err != nil {
		t.Fatal(err)
	}
	if err := first.Enforcer.Protect("bob", "holiday", nil, ""); err != nil {
		t.Fatal(err)
	}
	first.Close()
	firstSrv.Close()

	g := gallery.New(gallery.Config{HostID: "gallery", PairingStore: pairings})
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { g.Close() })
	g.Enforcer.SetBaseURL(srv.URL)
	if failed := g.Enforcer.SubscribeAll(); len(failed) != 0 {
		t.Fatalf("resubscribe failed: %v", failed)
	}
	if err := g.AddPhoto("bob", "holiday", "sunset.png", pngBytes(t)); err != nil {
		t.Fatal(err)
	}
	p, err := w.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: "alice"}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cache := g.Enforcer.Cache()
	gen := cache.Gen()
	if err := w.AM.LinkGeneral("bob", "holiday", p.ID); err != nil {
		t.Fatal(err)
	}
	if err := sim.AwaitInvalidation(cache, gen); err != nil {
		t.Fatal(err)
	}

	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	if _, err := alice.Fetch(gallery.PhotoURL(srv.URL, "bob", "holiday", "sunset.png"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	if n := cache.Len(); n != 1 {
		t.Fatalf("cache len = %d, want the permit cached", n)
	}
	gen = cache.Gen()
	if err := w.AM.DeletePolicy("bob", p.ID); err != nil {
		t.Fatal(err)
	}
	if err := sim.AwaitInvalidation(cache, gen); err != nil {
		t.Fatal(err)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("cache len = %d after revocation, want the permit evicted", n)
	}
}

func TestImportDeniedWithoutPolicy(t *testing.T) {
	f := newFixture(t)
	f.storage.Tree("bob").Put("/travel/beach.png", pngBytes(t))
	// Delegate storage but link NO policy: deny-biased default.
	bob := sim.NewUserAgent("bob")
	if err := bob.PairEnforcer(f.storage.Enforcer, f.world.AMServer.URL); err != nil {
		t.Fatal(err)
	}
	if err := f.storage.Enforcer.Protect("bob", "travel", nil, ""); err != nil {
		t.Fatal(err)
	}
	resp := asUser(t, "bob", http.MethodPost, f.gallerySrv.URL+"/import", mustJSON(t, map[string]string{
		"url":   storage.FileURL(f.storageSrv.URL, "bob", "/travel/beach.png"),
		"album": "x", "photo": "y",
	}))
	defer resp.Body.Close()
	if resp.StatusCode != 403 {
		t.Fatalf("status = %d, want 403", resp.StatusCode)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func readBody(resp *http.Response) string {
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

var _ = fmt.Sprintf
