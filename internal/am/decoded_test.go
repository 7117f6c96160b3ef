package am

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/store"
)

// The store decodes each version of an entity once and hands out copies
// of the cached value. These tests hold that to being invisible: for every
// kind the AM stores, whichever path wrote the bytes, every read equals a
// fresh json.Unmarshal of Entity.Data, and no read shares memory with the
// cache or with another read.

// storedKind is one kind the AM stores: a sample value and a constructor
// for a fresh destination of its type.
type storedKind struct {
	kind   string
	sample any
	newDst func() any
}

func storedKinds() []storedKind {
	at := time.Date(2026, 3, 4, 5, 6, 7, 8, time.FixedZone("", 2*3600))
	return []storedKind{
		{kindPairing, Pairing{ID: "pair-1", Host: "webpics", HostName: "WebPics", HostURL: "http://webpics",
			User: "bob", Scope: core.PairingScopeResources, Resources: []core.ResourceID{"a", "b"},
			Secret: "s3cret", CreatedAt: time.Now()}, func() any { return new(Pairing) }},
		{kindRealm, Realm{Host: "webpics", Realm: "travel", Owner: "bob", PairingID: "pair-1",
			Resources: []core.ResourceID{"photo-1", "photo-2"}}, func() any { return new(Realm) }},
		{kindPolicy, policy.Policy{ID: "pol-1", Owner: "bob", Name: "friends", Kind: policy.KindGeneral,
			Combining: policy.CombineFirstApplicable, Description: "d", CacheTTLSeconds: 30,
			Rules: []policy.Rule{{
				Effect:   policy.EffectPermit,
				Subjects: []policy.Subject{{Type: policy.SubjectGroup, Name: "friends"}, {Type: policy.SubjectEveryone}},
				Actions:  []core.Action{core.ActionRead},
				Conditions: []policy.Condition{{Type: policy.CondTimeWindow, NotBefore: at, NotAfter: at.Add(time.Hour)},
					{Type: policy.CondRequireClaim, Claim: "paid", Value: "yes"}},
			}, {Effect: policy.EffectDeny, Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: "eve"}}}},
		}, func() any { return new(policy.Policy) }},
		{kindLinkGen, linkRecord{Policy: "pol-1"}, func() any { return new(linkRecord) }},
		{kindLinkSpec, linkRecord{Policy: "pol-2"}, func() any { return new(linkRecord) }},
		{kindGroup, []core.UserID{"alice", "carol"}, func() any { return new([]core.UserID) }},
		{kindCustodian, []core.UserID{"dave"}, func() any { return new([]core.UserID) }},
		{kindClusterRing, core.RingState{Version: 3, Vnodes: 8, Draining: []string{"shard-c"},
			Shards: []core.ShardInfo{{Name: "shard-a", Primary: "http://a", Endpoints: []string{"http://a", "http://a2"}}}},
			func() any { return new(core.RingState) }},
		{kindShardOverride, "shard-b", func() any { return new(string) }},
	}
}

// readAndCheck reads (kind, key) twice — a decode, then a cache hit —
// and checks each read against a fresh json.Unmarshal of the stored
// bytes; then it scribbles over everything the reads returned and checks
// that the next read is unchanged.
func readAndCheck(t *testing.T, st *store.Store, k storedKind, key, path string) {
	t.Helper()
	var reads []any
	for i := 0; i < 2; i++ {
		got := k.newDst()
		e, err := st.Get(k.kind, key, got)
		if err != nil {
			t.Fatalf("%s: Get %s/%s: %v", path, k.kind, key, err)
		}
		want := k.newDst()
		if err := json.Unmarshal(e.Data, want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: read %d of %s = %#v, json.Unmarshal gives %#v", path, i, k.kind, got, want)
		}
		reads = append(reads, got)
	}
	for _, r := range reads {
		scribble(reflect.ValueOf(r).Elem())
	}
	got, want := k.newDst(), k.newDst()
	e, err := st.Get(k.kind, key, got)
	if err != nil {
		t.Fatal(err)
	}
	json.Unmarshal(e.Data, want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: after mutating earlier reads, %s reads %#v, want %#v", path, k.kind, got, want)
	}
}

// scribble overwrites every string, number and bool v reaches, through
// slices, maps and pointers, and adds a key to every map.
func scribble(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "!")
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Pointer:
		if !v.IsNil() {
			scribble(v.Elem())
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			scribble(v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if f := v.Field(i); f.CanSet() {
				scribble(f)
			}
		}
	case reflect.Map:
		if v.IsNil() {
			return
		}
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			scribble(e)
			v.SetMapIndex(k, e)
		}
		if v.Type().Key().Kind() == reflect.String {
			v.SetMapIndex(reflect.ValueOf("scribbled").Convert(v.Type().Key()), reflect.New(v.Type().Elem()).Elem())
		}
	}
}

// TestDecodedReadsMatchJSON: after Put, after a snapshot load and a WAL
// replay, and after ApplyReplicated, every read of every kind equals
// json.Unmarshal of the stored bytes, the first read and the cached ones
// alike, and mutating any read or the value given to Put changes nothing
// the store hands out next.
func TestDecodedReadsMatchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	kinds := storedKinds()
	for i, k := range kinds {
		// The given value is scribbled over after Put, through a copy
		// that shares its slices and maps.
		given := reflect.New(reflect.TypeOf(k.sample))
		given.Elem().Set(reflect.ValueOf(storedKinds()[i].sample))
		if _, err := st.Put(k.kind, "snap", given.Interface()); err != nil {
			t.Fatal(err)
		}
		scribble(given.Elem())
		readAndCheck(t, st, k, "snap", "after Put")
	}
	if err := st.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	for _, k := range kinds {
		if _, err := st.Put(k.kind, "wal", k.sample); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	follower := store.New()
	for i, k := range kinds {
		readAndCheck(t, st, k, "snap", "after snapshot load")
		readAndCheck(t, st, k, "wal", "after WAL replay")
		data, _ := json.Marshal(k.sample)
		rec := core.ReplRecord{Seq: int64(i + 1), Op: core.ReplOpPut, Kind: k.kind, Key: "repl", Version: 1, Data: data}
		if err := follower.ApplyReplicated(rec); err != nil {
			t.Fatal(err)
		}
		readAndCheck(t, follower, k, "repl", "after ApplyReplicated")
	}
}

// TestDecodedReadOfAnotherType: a version cached as one type is decoded
// fresh, not reinterpreted, when read as another, and each new version is
// decoded again.
func TestDecodedReadOfAnotherType(t *testing.T) {
	st := store.New()
	if _, err := st.Put(kindRealm, "k", Realm{Host: "webpics", Realm: "travel", Resources: []core.ResourceID{"a"}}); err != nil {
		t.Fatal(err)
	}
	var r Realm
	st.Get(kindRealm, "k", &r)
	var generic map[string]any
	if _, err := st.Get(kindRealm, "k", &generic); err != nil {
		t.Fatal(err)
	}
	if generic["realm"] != "travel" || len(generic["resources"].([]any)) != 1 {
		t.Fatalf("generic read = %v", generic)
	}
	var link linkRecord
	if _, err := st.Get(kindRealm, "k", &link); err != nil || link != (linkRecord{}) {
		t.Fatalf("read as linkRecord = %+v, %v", link, err)
	}
	if _, err := st.Put(kindRealm, "k", Realm{Host: "webpics", Realm: "food"}); err != nil {
		t.Fatal(err)
	}
	r = Realm{}
	if _, err := st.Get(kindRealm, "k", &r); err != nil || r.Realm != "food" || r.Resources != nil {
		t.Fatalf("read of the next version = %+v, %v", r, err)
	}
}

// TestDecodedReadConcurrentGetPut: readers mutating what they read while
// a writer replaces the entity. Run under -race; every read must be one
// whole written version, and the last read the last version.
func TestDecodedReadConcurrentGetPut(t *testing.T) {
	st := store.New()
	version := func(n int) Realm {
		v := strconv.Itoa(n)
		return Realm{Host: "webpics", Realm: core.RealmID("r" + v), Owner: core.UserID("o" + v),
			Resources: []core.ResourceID{core.ResourceID("x" + v), core.ResourceID("y" + v)}}
	}
	if _, err := st.Put(kindRealm, "k", version(0)); err != nil {
		t.Fatal(err)
	}
	const writes = 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				var r Realm
				if _, err := st.Get(kindRealm, "k", &r); err != nil {
					t.Error(err)
					return
				}
				n, _ := strconv.Atoi(strings.TrimPrefix(string(r.Realm), "r"))
				if want := version(n); !reflect.DeepEqual(r, want) {
					t.Errorf("read %+v, not a written version", r)
					return
				}
				r.Resources[0] = "mine"
				r.Resources = append(r.Resources, "more")
			}
		}()
	}
	for i := 1; i <= writes; i++ {
		if _, err := st.Put(kindRealm, "k", version(i)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	// A reader that decoded an older version must not have installed it
	// over a newer one.
	var r Realm
	if _, err := st.Get(kindRealm, "k", &r); err != nil || !reflect.DeepEqual(r, version(writes)) {
		t.Fatalf("final read = %+v, %v; want the last version written", r, err)
	}
}

// FuzzStoreDecodedRead: arbitrary bytes applied as a replicated record
// and read into each of the decision path's stored types — twice each,
// so the second read is a cache hit, and cycling back to the first type —
// give exactly what encoding/json gives, errors included.
func FuzzStoreDecodedRead(f *testing.F) {
	for _, k := range storedKinds() {
		data, _ := json.Marshal(k.sample)
		f.Add(data)
	}
	f.Add([]byte(`{"resources":["a",1]}`))
	f.Add([]byte(`{"rules":[{"subjects":["user:"]}]}`))
	f.Add([]byte(`null`))
	// Duplicate and case-folded keys: encoding/json lets the last match win.
	f.Add([]byte(`{"resources":["a","b"],"Resources":null,"resources":["c"]}`))
	// A grant record as older AMs stored it: every field is unknown to
	// the types read now.
	f.Add([]byte(`{"owner":"bob","requester":"gallery","subject":"alice","claims":{"paid":"yes","tier":"gold"},"consent_granted":true}`))
	targets := []func() any{
		func() any { return new(Pairing) },
		func() any { return new(Realm) },
		func() any { return new(policy.Policy) },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := store.New()
		rec := core.ReplRecord{Seq: 1, Op: core.ReplOpPut, Kind: "k", Key: "key", Version: 1, Data: data}
		if err := st.ApplyReplicated(rec); err != nil {
			t.Fatal(err)
		}
		for _, newDst := range append(targets, targets[0]) {
			for i := 0; i < 2; i++ {
				got, want := newDst(), newDst()
				_, err := st.Get("k", "key", got)
				wantErr := json.Unmarshal(data, want)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("%T read %d of %q: err %v, encoding/json %v", got, i, data, err, wantErr)
				}
				if err != nil {
					if !strings.HasSuffix(err.Error(), wantErr.Error()) {
						t.Fatalf("%T read %d of %q: err %v, encoding/json %v", got, i, data, err, wantErr)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%T read %d of %q = %#v, encoding/json %#v", got, i, data, got, want)
				}
			}
		}
	})
}
