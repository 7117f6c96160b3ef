package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// The decision codec is checked against encoding/json, its reference: one
// fuzz target per envelope decodes the fuzzed body both ways and compares
// accept/reject and the decoded value, then re-encodes what it decoded (and
// an envelope built from the fuzzed bytes' pieces) both ways and compares
// the bytes.

// jsonDecode is the reference decoder: json.Decoder, DisallowUnknownFields
// for queries, and nothing but whitespace after the value. The last rule
// is the codec's tightening of webutil.ReadJSON, whose More() check let a
// trailing "}" or "]" through, and of amclient's response decoder, which
// never looked past the value.
func jsonDecode(b []byte, v any, strict bool) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(b[dec.InputOffset():], " \t\r\n")) != 0 {
		return errors.New("trailing data")
	}
	return nil
}

// envelope is one of the four codec types.
type envelope interface {
	AppendJSON([]byte) []byte
	DecodeJSON([]byte) error
}

// checkDecode decodes b with the codec into got and with encoding/json into
// want (both fresh), and fails unless they agree.
func checkDecode(t *testing.T, b []byte, got, want envelope, strict bool) {
	t.Helper()
	errGot := got.DecodeJSON(b)
	errWant := jsonDecode(b, want, strict)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("body %q: codec err = %v, encoding/json err = %v", b, errGot, errWant)
	}
	if errGot != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: codec decoded %#v, encoding/json %#v", b, got, want)
	}
	checkEncode(t, got)
}

// checkEncode fails unless AppendJSON writes what json.Marshal writes.
func checkEncode(t *testing.T, v envelope) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	got := v.AppendJSON(prefix)
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%#v: AppendJSON = %q, json.Marshal = %q", v, got[len(prefix):], want)
	}
}

// pieces splits fuzzed bytes into n strings (missing ones empty).
func pieces(b []byte, n int) []string {
	out := strings.SplitN(string(b), "\x00", n)
	for len(out) < n {
		out = append(out, "")
	}
	return out
}

// decodeSeeds are bodies every target starts from: escapes, folding,
// duplicates, null, numbers, trailing data and malformed input.
var decodeSeeds = []string{
	``, ` `, `null`, ` null `, `{}`, `[]`, `"x"`, `1`, `true`, `{}}`, `{}]`, `{} {}`, `{}x`,
	`{"host":"h"}`, `{"HOST":"h"}`, `{"hoſt":"h"}`, `{"ho\u017ft":"h"}`, `{"host":"a","host":"b"}`,
	`{"host":"a","Host":null}`, `{"host":null}`, `{"host":1}`, `{"host":{}}`, `{"host":[]}`,
	`{"host":"<a&b>  "}`, `{"host":"\u003c\u2028𝄞\ud834x\udd1e\ud834\udd1e"}`, `{"host":"\uD800A"}`,
	"{\"host\":\"\xff\xfe\"}", "{\"host\":\"a\x01\"}", `{"host":"\/\b\f\n\r\t\\\""}`, `{"host":"\x"}`,
	`{"host":"\u12"}`, `{"host" "x"}`, `{"host":"x",}`, `{,"host":"x"}`, `{"host":"x"`, `{"unknown":1}`,
	`{"unknown":[1,{"a":[true,false,null]},-0.5e+3,"s"]}`, `{"unknown":01}`, `{"unknown":1.}`,
	`{"unknown":-}`, `{"unknown":tru}`, `{"unknown":nullx}`, "{\n\t\"host\" : \"x\" \r}",
	`{"token":"t","toKen":"k"}`, `{"to\u212aen":"k"}`, `{"ıtems":null}`,
}

func FuzzDecisionQueryCodec(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"pairing_id":"p","host":"h","realm":"r","resource":"x","action":"read","token":"t"}`))
	f.Add([]byte(`{"PAIRING_ID":"p","Realm":"r","realm":"s","extra":true}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b, new(DecisionQuery), new(DecisionQuery), true)
		p := pieces(b, 6)
		checkEncode(t, &DecisionQuery{PairingID: p[0], Host: HostID(p[1]), Realm: RealmID(p[2]),
			Resource: ResourceID(p[3]), Action: Action(p[4]), Token: p[5]})
	})
}

func FuzzDecisionResponseCodec(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"decision":"permit","cache_ttl_seconds":60,"reason":"rule 0 permits read (deny-overrides)"}` + "\n"))
	f.Add([]byte(`{"decision":"deny","cache_ttl_seconds":0,"token_problem":true,"error":"x","new_field":{"a":[1]}}`))
	f.Add([]byte(`{"cache_ttl_seconds":-0}`))
	f.Add([]byte(`{"cache_ttl_seconds":1e2}`))
	f.Add([]byte(`{"cache_ttl_seconds":1.0}`))
	f.Add([]byte(`{"cache_ttl_seconds":99999999999999999999}`))
	f.Add([]byte(`{"cache_ttl_seconds":"5"}`))
	f.Add([]byte(`{"token_problem":1}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b, new(DecisionResponse), new(DecisionResponse), false)
		p := pieces(b, 2)
		checkEncode(t, &DecisionResponse{Decision: p[0], CacheTTLSeconds: len(b) - 8, Reason: p[1], TokenProblem: len(b)%2 == 0})
	})
}

func FuzzBatchDecisionQueryCodec(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"pairing_id":"p","host":"h","token":"t","items":[{"realm":"r","resource":"a","action":"read"},{"realm":"r","resource":"b","action":"read","token":"u"}]}`))
	f.Add([]byte(`{"items":[{"realm":"r","token":"u"},{"realm":"s"}],"items":[{"resource":"x"}]}`))
	f.Add([]byte(`{"items":[{"realm":"r"}],"items":[]}`))
	f.Add([]byte(`{"items":null}`))
	f.Add([]byte(`{"items":[null,{}]}`))
	f.Add([]byte(`{"items":[1]}`))
	f.Add([]byte(`{"items":{}}`))
	f.Add([]byte(`{"items":[{"realm":"r"},]}`))
	f.Add([]byte(`{"items":[{"realm":"r","extra":1}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b, new(BatchDecisionQuery), new(BatchDecisionQuery), true)
		p := pieces(b, 6)
		q := &BatchDecisionQuery{PairingID: p[0], Host: HostID(p[1]), Token: p[2]}
		if len(b)%3 != 0 {
			q.Items = []BatchDecisionItem{{Realm: RealmID(p[3]), Resource: ResourceID(p[4]), Action: Action(p[5])}, {Token: p[0]}}
		}
		checkEncode(t, q)
	})
}

func FuzzBatchDecisionResponseCodec(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"results":[{"decision":"permit","cache_ttl_seconds":60,"reason":"r"},{"decision":"deny","cache_ttl_seconds":0,"reason":"r","error":"unknown realm"}]}` + "\n"))
	f.Add([]byte(`{"results":[{"decision":"permit","error":"e"}],"results":[{"reason":"r"}],"other":null}`))
	f.Add([]byte(`{"results":null}`))
	f.Add([]byte(`{"results":[]}`))
	f.Add([]byte(`{"results":[null,{"DECISION":"permit","Error":"x"}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b, new(BatchDecisionResponse), new(BatchDecisionResponse), false)
		p := pieces(b, 3)
		r := &BatchDecisionResponse{}
		if len(b)%3 != 0 {
			r.Results = []BatchDecisionResult{
				{DecisionResponse: DecisionResponse{Decision: p[0], CacheTTLSeconds: len(b), Reason: p[1]}, Error: p[2]},
				{DecisionResponse: DecisionResponse{TokenProblem: true}},
			}
		}
		checkEncode(t, r)
	})
}

// TestDecisionCodecDepthLimit: an unknown member nested just inside and
// just past encoding/json's depth limit is skipped or refused as it is
// there. These bodies are too large to seed the fuzz targets with: the
// mutator would spend its time on them.
func TestDecisionCodecDepthLimit(t *testing.T) {
	for _, depth := range []int{9998, 10001} {
		b := []byte(`{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`)
		checkDecode(t, b, new(DecisionResponse), new(DecisionResponse), false)
	}
}

// TestDecisionCodecReusesReceiver: DecodeJSON resets the receiver, so a
// pooled envelope never carries a field of the previous body into the next
// one — what encoding/json did to an item a pooled Items array had held
// before, when the new body left that item's token out.
func TestDecisionCodecReusesReceiver(t *testing.T) {
	var q BatchDecisionQuery
	if err := q.DecodeJSON([]byte(`{"pairing_id":"p","host":"h","items":[{"realm":"r","resource":"a","action":"read","token":"other-host"}]}`)); err != nil {
		t.Fatal(err)
	}
	q.Items = q.Items[:0]
	if err := q.DecodeJSON([]byte(`{"pairing_id":"p2","host":"h2","token":"t","items":[{"realm":"r","resource":"b","action":"read"}]}`)); err != nil {
		t.Fatal(err)
	}
	want := BatchDecisionQuery{PairingID: "p2", Host: "h2", Token: "t", Items: []BatchDecisionItem{{Realm: "r", Resource: "b", Action: "read"}}}
	if !reflect.DeepEqual(q, want) {
		t.Fatalf("decoded %#v, want %#v", q, want)
	}
}

// TestDecisionCodecAllocations pins the codec's garbage: encoding appends
// into the caller's buffer and allocates nothing; decoding a page of items
// copies each distinct string once.
func TestDecisionCodecAllocations(t *testing.T) {
	q := BatchDecisionQuery{PairingID: "pair-1", Host: "host", Token: "tok"}
	for i := 0; i < 16; i++ {
		q.Items = append(q.Items, BatchDecisionItem{Realm: "travel", Resource: ResourceID("photo-" + string(rune('a'+i))), Action: ActionRead})
	}
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() { buf = q.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("AppendJSON: %v allocs, want 0", n)
	}
	body := q.AppendJSON(nil)
	dst := BatchDecisionQuery{Items: make([]BatchDecisionItem, 0, 16)}
	// pairing_id, host, token, one realm, one action and 16 resources.
	if n := testing.AllocsPerRun(100, func() {
		if err := dst.DecodeJSON(body); err != nil {
			t.Fatal(err)
		}
	}); n > 21 {
		t.Errorf("BatchDecisionQuery.DecodeJSON: %v allocs, want <= 21", n)
	}
	resp := BatchDecisionResponse{Results: make([]BatchDecisionResult, 16)}
	for i := range resp.Results {
		resp.Results[i].DecisionResponse = DecisionResponse{Decision: "permit", CacheTTLSeconds: 60, Reason: "rule 0 permits read (deny-overrides)"}
	}
	body = resp.AppendJSON(nil)
	out := BatchDecisionResponse{Results: make([]BatchDecisionResult, 0, 16)}
	if n := testing.AllocsPerRun(100, func() {
		if err := out.DecodeJSON(body); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("BatchDecisionResponse.DecodeJSON: %v allocs, want <= 1 (one reason)", n)
	}
}
