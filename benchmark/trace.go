package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"umac/internal/am"
	"umac/internal/cluster"
	"umac/internal/store"
)

// Span names. The first four are the SDK calls the benchmark wraps; a
// round-trip is what the SDK's HTTP client does inside one; a handler is
// the AM's whole middleware stack serving it.
const (
	spanCheck      = "pep.check"
	spanCheckBatch = "pep.check_batch"
	spanWrite      = "amclient.write"
	spanToken      = "amclient.token"
	spanRoundTrip  = "amclient.roundtrip"
	spanHandler    = "am.handler"
)

// span is one timed interval at a layer boundary. Spans of one request
// share RequestID; Parent indexes the span that caused this one (-1 for a
// root). Times are nanoseconds since the tracer started.
type span struct {
	Name      string `json:"name"`
	RequestID string `json:"request_id"`
	Parent    int    `json:"parent"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	ReqBytes  int64  `json:"req_bytes,omitempty"`
	RespBytes int64  `json:"resp_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It assumes what the
// traced replay guarantees: one client, so at most one SDK call and one
// round-trip are open at a time; only the handler runs on another
// goroutine, and it finds its parent by request ID.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	call  int            // open SDK call span, -1 when none
	byID  map[string]int // request ID -> its round-trip span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), call: -1, byID: make(map[string]int)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// openSpan is a started span; end closes it. Both tolerate nil, so call
// sites need no "is tracing on" branch.
type openSpan struct {
	t   *tracer
	idx int
}

// begin opens an SDK call span with a fresh request ID.
func (t *tracer) begin(name string) *openSpan {
	if t == nil || !t.on.Load() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, RequestID: "bench-" + strconv.Itoa(len(t.spans)), Parent: -1, Start: t.now(),
	})
	t.call = len(t.spans) - 1
	return &openSpan{t, t.call}
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.t.mu.Lock()
	o.t.spans[o.idx].End = o.t.now()
	if o.t.call == o.idx {
		o.t.call = -1
	}
	o.t.mu.Unlock()
}

// transport wraps the SDK's RoundTripper: it opens a round-trip span under
// the open call span and stamps the shared request ID on the wire. The
// pairing signature covers method, path, body, timestamp and nonce, not
// headers, so the stamp does not invalidate it.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if !t.on.Load() {
			return base.RoundTrip(req)
		}
		t.mu.Lock()
		parent := t.call
		id := "bench-" + strconv.Itoa(len(t.spans)) // a request outside any call
		if parent >= 0 {
			id = t.spans[parent].RequestID
		}
		t.spans = append(t.spans, span{
			Name: spanRoundTrip, RequestID: id, Parent: parent, Start: t.now(), ReqBytes: max(req.ContentLength, 0),
		})
		idx := len(t.spans) - 1
		t.byID[id] = idx
		t.mu.Unlock()

		stamped := req.Clone(req.Context())
		stamped.Header.Set("X-Request-Id", id)
		resp, err := base.RoundTrip(stamped)

		t.mu.Lock()
		t.spans[idx].End = t.now()
		if resp != nil {
			t.spans[idx].RespBytes = max(resp.ContentLength, 0)
		}
		t.mu.Unlock()
		return resp, err
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// handler wraps the AM's handler with a span parented to the round-trip
// that carries the same request ID.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		id := r.Header.Get("X-Request-Id")
		t.mu.Lock()
		parent, ok := t.byID[id]
		if !ok {
			parent = -1
		}
		t.spans = append(t.spans, span{Name: spanHandler, RequestID: id, Parent: parent, Start: t.now()})
		idx := len(t.spans) - 1
		t.mu.Unlock()
		next.ServeHTTP(w, r)
		t.mu.Lock()
		t.spans[idx].End = t.now()
		t.mu.Unlock()
	})
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if covered := min(s.End, p.End) - max(s.Start, p.Start); covered > 0 {
			self[s.Parent] -= covered
		}
	}
	return self
}

// chain is one request seen at every layer: the SDK call, its round-trip
// and the handler, in µs. callSelf + rtSelf + handler == total.
type chain struct {
	total, callSelf, rtSelf, handler float64
	reqBytes, respBytes              float64
}

// chains collects the requests of the named call that crossed all three
// layers exactly once (a cached Check has no round-trip and is left out).
func chains(spans []span, call string) []chain {
	self := selfTimes(spans)
	const us = float64(time.Microsecond)
	var out []chain
	rtOf := make(map[int]int)      // call span -> its round-trip
	handlerOf := make(map[int]int) // round-trip -> its handler
	for i, s := range spans {
		switch {
		case s.Name == spanRoundTrip && s.Parent >= 0:
			rtOf[s.Parent] = i
		case s.Name == spanHandler && s.Parent >= 0:
			handlerOf[s.Parent] = i
		}
	}
	for i, s := range spans {
		if s.Name != call {
			continue
		}
		rt, ok := rtOf[i]
		if !ok {
			continue
		}
		h, ok := handlerOf[rt]
		if !ok {
			continue
		}
		out = append(out, chain{
			total:    float64(s.dur()) / us,
			callSelf: float64(self[i]) / us,
			rtSelf:   float64(self[rt]) / us,
			handler:  float64(spans[h].dur()) / us,
			reqBytes: float64(spans[rt].ReqBytes), respBytes: float64(spans[rt].RespBytes),
		})
	}
	return out
}

// midmean averages the chains in the middle half by total time. Like a
// median it ignores the tails; unlike medians its lines add up: the three
// self times sum to the total exactly, which is what a budget needs.
func midmean(cs []chain) chain {
	s := append([]chain(nil), cs...)
	sort.Slice(s, func(i, j int) bool { return s[i].total < s[j].total })
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var m chain
	for _, c := range mid {
		m.total += c.total
		m.callSelf += c.callSelf
		m.rtSelf += c.rtSelf
		m.handler += c.handler
		m.reqBytes += c.reqBytes
		m.respBytes += c.respBytes
	}
	n := float64(len(mid))
	return chain{m.total / n, m.callSelf / n, m.rtSelf / n, m.handler / n, m.reqBytes / n, m.respBytes / n}
}

func (t *tracer) write(path, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// inproc is the AM of the traced replay: the same configuration the
// spawned server gets (fsync store, primary of a ring of one), but built
// in this process behind a real loopback listener so the benchmark can
// wrap its handler and call its layers directly.
type inproc struct {
	am    *am.AM
	store *store.Store
	srv   *http.Server
	url   string
	done  chan struct{}
}

func startInproc(dir string, tr *tracer) (*inproc, error) {
	st, err := store.Open(filepath.Join(dir, "replay.json"), store.WithFsync())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	p := &inproc{store: st, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	shards, err := cluster.ParseSpec("shard-a=" + p.url)
	if err != nil {
		return nil, err
	}
	ring, err := cluster.New(shards, 0)
	if err != nil {
		return nil, err
	}
	p.am = am.New(am.Config{
		Name: "umacbench-replay", BaseURL: p.url, Store: st, TokenKey: []byte(tokenKey),
		Notifier:    &am.Outbox{},
		Replication: am.ReplicationConfig{Role: am.RolePrimary, Secret: replSecret},
		Cluster:     am.ClusterConfig{Shard: "shard-a", Ring: ring},
	})
	p.srv = &http.Server{Handler: tr.handler(p.am.Handler())}
	go func() {
		p.srv.Serve(ln)
		close(p.done)
	}()
	return p, nil
}

func (p *inproc) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if p.srv.Shutdown(ctx) != nil {
		p.srv.Close() // event streams never go idle; cut them
	}
	<-p.done
	p.am.Close()
	p.store.Close()
}

// replayResult is what the traced, in-process pass over a workload yields.
type replayResult struct {
	chains []chain
	// offP50 and onP50 are the caller-side median latencies in µs of the
	// ops that crossed to the AM, wrappers off and on.
	offP50, onP50 float64
}

func (r replayResult) overheadPct() float64 { return (r.onP50 - r.offP50) / r.offP50 * 100 }

// rung is one ladder figure shown under the span it refines.
type rung struct {
	indent int
	name   string
}

// budgetRungs lists, per workload, the ladder rungs shown under the SDK
// span and under the handler span. Rungs at indent 2 are the handler's
// direct parts; deeper ones refine the rung above them.
func budgetRungs(workload string) (title string, sdk, handler []rung) {
	switch workload {
	case "policy_write":
		return "write budget", nil,
			[]rung{{2, "am.create_policy"}, {3, "store.put_fsync"}, {4, "store.put_buffered"}, {5, "store.put_nowal"}, {3, "events.publish"}}
	case "page_batch":
		return "decision budget", []rung{{2, "httpsig.sign"}},
			[]rung{{2, "httpsig.verify"}, {2, "am.decide_batch16"}, {3, "token.validate"}, {3, "store.get"}}
	}
	return "decision budget", []rung{{2, "httpsig.sign"}, {2, "pep.cache_get"}},
		[]rung{{2, "httpsig.verify"}, {2, "am.decide"}, {3, "cluster.ring_owner"}, {3, "token.validate"}, {3, "store.get"}, {3, "policy.evaluate_compiled"}, {3, "audit.enqueue"}}
}

// ladderUS reads a rung in µs whichever unit it was recorded in.
func ladderUS(ladder map[string]float64, name string) float64 {
	if v, ok := ladder[name+"_us"]; ok {
		return v
	}
	return ladder[name+"_ns"] / 1000
}

// handlerSelf is the handler span minus the rungs that are its direct
// parts: middleware, decoding, the shard check and encoding.
func handlerSelf(workload string, mm chain, ladder map[string]float64) float64 {
	_, _, rungs := budgetRungs(workload)
	self := mm.handler
	for _, r := range rungs {
		if r.indent == 2 {
			self -= ladderUS(ladder, r.name)
		}
	}
	return self
}

// formatBudget prints where one request's time goes. The three span lines
// sum to the first line exactly; ladder rungs are shown indented under the
// span they refine, and what they do not explain stays visible as that
// span's remaining self time. The gap to the spawned server is its own
// line.
func formatBudget(def workloadDef, mm chain, medianTotal float64, ladder map[string]float64, spawnedP50 float64) string {
	workload := def.Name
	title, sdkRungs, handlerRungs := budgetRungs(workload)
	out := fmt.Sprintf("%s (%s, in-process traced replay; µs, mean over the middle half of requests by total time)\n", title, workload)
	line := func(indent int, name string, v float64, note string) {
		out += fmt.Sprintf("  %-50s %10.2f  %s\n", fmt.Sprintf("%*s%s", indent*2, "", name), v, note)
	}
	line(0, def.span, mm.total, "= sum of the three lines one level in")
	line(1, "sdk self (call - round-trip)", mm.callSelf, "")
	for _, r := range sdkRungs {
		line(r.indent, "· "+r.name, ladderUS(ladder, r.name), "ladder")
	}
	line(1, "amclient.roundtrip self (loopback HTTP)", mm.rtSelf, "")
	line(1, spanHandler, mm.handler, "")
	for _, r := range handlerRungs {
		line(r.indent, "· "+r.name, ladderUS(ladder, r.name), "ladder")
	}
	line(2, "· remaining self (middleware, decode, encode)", handlerSelf(workload, mm, ladder), "am.handler - its rungs")
	line(0, "traced median", medianTotal, "")
	line(0, "bench.inproc_gap_us", spawnedP50-medianTotal, fmt.Sprintf("spawned median %.2f - traced median", spawnedP50))
	return out
}
