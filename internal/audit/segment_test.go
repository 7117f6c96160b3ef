package audit

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"umac/internal/core"
	"umac/internal/seglog"
)

var testOwners = []core.UserID{"alice", "bob", "carol", "dave"}

// randomEvent draws from small value sets so random filters hit. Times are
// explicit so the model holds exactly what the log stores.
func randomEvent(rng *rand.Rand) Event {
	pick := func(vals ...string) string { return vals[rng.IntN(len(vals))] }
	return Event{
		Time:      time.Unix(1_700_000_000+rng.Int64N(1000), rng.Int64N(1e9)),
		Type:      EventType(pick(string(EventDecision), string(EventPolicyCreated), string(EventTokenIssued), "x-custom", "")),
		Owner:     testOwners[rng.IntN(len(testOwners))],
		Host:      core.HostID(pick("", "webpics", "webdocs")),
		Realm:     core.RealmID(pick("", "travel", "work")),
		Resource:  core.ResourceID(fmt.Sprintf("r%d", rng.IntN(50))),
		Requester: core.RequesterID(pick("", "browser", "gallery")),
		Subject:   core.UserID(pick("", "alice", "erin")),
		Action:    core.Action(pick("read", "write", "")),
		Decision:  pick("", "permit", "deny", "maybe"),
		Detail:    strings.Repeat("d", rng.IntN(80)),
	}
}

func randomFilter(rng *rand.Rand) Filter {
	var f Filter
	some := func() bool { return rng.IntN(3) == 0 }
	if rng.IntN(2) == 0 {
		f.Owner = testOwners[rng.IntN(len(testOwners))]
	}
	if some() {
		f.Host = "webpics"
	}
	if some() {
		f.Realm = "travel"
	}
	if some() {
		f.Requester = "browser"
	}
	if some() {
		f.Type = EventDecision
	}
	if some() {
		f.Since = time.Unix(1_700_000_000+rng.Int64N(1000), 0)
	}
	if some() {
		f.Until = time.Unix(1_700_000_000+rng.Int64N(1000), 0)
	}
	return f
}

// modelPage is the reference QueryPage: one pass over a plain slice with
// the same Filter.matches.
func modelPage(events []Event, f Filter, offset, limit int) ([]Event, int) {
	var out []Event
	total := 0
	for _, e := range events {
		if !f.matches(e) {
			continue
		}
		if total >= offset && len(out) < limit {
			out = append(out, e)
		}
		total++
	}
	return out, total
}

// modelSummary is the reference Summarize.
func modelSummary(events []Event, owner core.UserID) Summary {
	s := Summary{Owner: owner, DecisionsByHost: map[core.HostID]int{}, Hosts: []core.HostID{}}
	hosts := map[core.HostID]bool{}
	requesters := map[core.RequesterID]bool{}
	for _, e := range events {
		if e.Owner != owner {
			continue
		}
		s.Events++
		if e.Host != "" && !hosts[e.Host] {
			hosts[e.Host] = true
			s.Hosts = append(s.Hosts, e.Host)
		}
		if e.Requester != "" {
			requesters[e.Requester] = true
		}
		if e.Type == EventDecision {
			s.DecisionsByHost[e.Host]++
			switch e.Decision {
			case "permit":
				s.PermitCount++
			case "deny":
				s.DenyCount++
			}
		}
	}
	s.RequesterCount = len(requesters)
	sort.Slice(s.Hosts, func(i, j int) bool { return s.Hosts[i] < s.Hosts[j] })
	return s
}

// TestSegmentLogMatchesModel streams random events into the segment log
// and into a plain []Event, crossing many seals, retention drops and (for
// the file-backed log) a close and reopen, and checks that QueryPage,
// Summarize and Len agree with the model over the retained suffix.
func TestSegmentLogMatchesModel(t *testing.T) {
	for _, file := range []bool{false, true} {
		name := map[bool]string{false: "memory", true: "file"}[file]
		t.Run(name, func(t *testing.T) {
			const segSize, retain = 2 << 10, 12 << 10
			base := ""
			if file {
				base = filepath.Join(t.TempDir(), "audit")
			}
			l, err := open(base, retain, segSize)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(24, uint64(len(name))))
			var model []Event
			check := func(stage string) {
				t.Helper()
				h := l.Health()
				kept := model[sort.Search(len(model), func(i int) bool { return model[i].Seq >= h.OldestSeq }):]
				if l.Len() != len(kept) || h.Events != len(kept) {
					t.Fatalf("%s: Len %d / health %d, model keeps %d", stage, l.Len(), h.Events, len(kept))
				}
				for q := 0; q < 60; q++ {
					f := randomFilter(rng)
					offset, limit := rng.IntN(len(kept)+5), rng.IntN(40)
					got, total := l.QueryPage(f, offset, limit)
					want, wantTotal := modelPage(kept, f, offset, limit)
					if total != wantTotal || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("%s: QueryPage(%+v, %d, %d) = %d events of %d, model %d of %d",
							stage, f, offset, limit, len(got), total, len(want), wantTotal)
					}
				}
				for _, owner := range testOwners {
					if got, want := l.Summarize(owner), modelSummary(kept, owner); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Summarize(%s) = %+v, model %+v", stage, owner, got, want)
					}
				}
			}
			for round := 0; round < 8; round++ {
				for i := 0; i < 100; i++ {
					if rng.IntN(3) == 0 {
						model = append(model, l.Append(randomEvent(rng)))
					} else {
						batch := make([]Event, 1+rng.IntN(16))
						for j := range batch {
							batch[j] = randomEvent(rng)
						}
						l.AppendBatch(batch)
						model = append(model, batch...)
					}
					if file && rng.IntN(8) == 0 {
						l.flush()
					}
				}
				check(fmt.Sprintf("round %d", round))
				if file && round == 4 {
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					if l, err = open(base, retain, segSize); err != nil {
						t.Fatal(err)
					}
					check("after reopen")
				}
			}
			for i, e := range model {
				if e.Seq != int64(i)+1 {
					t.Fatalf("event %d has seq %d: not dense across seals and reopen", i, e.Seq)
				}
			}
			h := l.Health()
			if h.Segments < 4 || h.OldestSeq <= 1 || h.Bytes > retain+segSize {
				t.Fatalf("seals and retention not exercised: %+v", h)
			}
			if file {
				segs, err := seglog.List(base)
				if err != nil || len(segs) != h.Segments {
					t.Fatalf("%d segment files for %d segments (err %v): retention left files behind", len(segs), h.Segments, err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestFileLogBuffersUntilFlushOrClose: appends below the write threshold
// stay in memory (and readable) until a flush or Close writes them, and
// Close makes them durable.
func TestFileLogBuffersUntilFlushOrClose(t *testing.T) {
	base := filepath.Join(t.TempDir(), "audit")
	l, err := Open(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.AppendBatch([]Event{decision("bob", "webpics", "browser", "permit"), decision("bob", "webdocs", "gallery", "deny")})
	if n := countOnDisk(t, base); n != 0 {
		t.Fatalf("%d events written before any flush", n)
	}
	if n := len(l.Query(Filter{Owner: "bob"})); n != 2 {
		t.Fatalf("buffered events not readable: %d", n)
	}
	l.Append(Event{Type: EventPolicyCreated, Owner: "bob"}) // Append writes through
	if n := countOnDisk(t, base); n != 3 {
		t.Fatalf("%d events on disk after Append, want 3", n)
	}
	l.AppendBatch([]Event{decision("bob", "webpics", "browser", "permit")})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Query(Filter{}); len(got) != 4 || got[3].Seq != 4 {
		t.Fatalf("after Close and reopen: %+v", got)
	}
}

// TestFailedSegmentFileIsTerminal: once the segment file refuses appends
// for good (a poisoned seglog), the log stops writing and buffering. Later
// events are dropped and counted instead of piling up in memory, and
// Health reports the failure. The failure here is a real one: the next
// segment's path is taken by a directory, so sealing the first segment
// cannot open its successor.
func TestFailedSegmentFileIsTerminal(t *testing.T) {
	base := filepath.Join(t.TempDir(), "audit")
	l, err := open(base, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(seglog.SegmentPath(base, 2), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; l.Health().Failed == ""; i++ {
		if i == 1000 {
			t.Fatal("a segment roll that cannot open the next segment never failed the log")
		}
		l.Append(decision("bob", "webpics", "browser", "permit"))
	}
	before := l.Health()
	if before.Dropped < 1 {
		t.Fatalf("the event whose write failed is not counted as dropped: %+v", before)
	}
	events := make([]Event, 100)
	for i := range events {
		events[i] = decision("bob", "webpics", "browser", "permit")
	}
	for range 100 {
		l.AppendBatch(events)
		l.flush()
	}
	after := l.Health()
	if after.Bytes != before.Bytes || after.Events != before.Events {
		t.Fatalf("a failed log kept growing: %d events / %d bytes, then %d / %d",
			before.Events, before.Bytes, after.Events, after.Bytes)
	}
	if after.Dropped != before.Dropped+100*100 {
		t.Fatalf("dropped = %d, want %d", after.Dropped, before.Dropped+100*100)
	}
	if !strings.Contains(after.Failed, "roll") {
		t.Fatalf("Failed = %q, want the roll error", after.Failed)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close of a failed log: %v", err)
	}
}

// TestPipelineWritesWithinFlushInterval: with neither Flush nor Close, the
// pipeline's tick puts every appended event on disk — the durability
// window a process kill is allowed to lose.
func TestPipelineWritesWithinFlushInterval(t *testing.T) {
	base := filepath.Join(t.TempDir(), "audit")
	l, err := Open(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(l, 0)
	defer func() {
		p.Close()
		l.Close()
	}()
	for i := 0; i < 10; i++ {
		p.Enqueue(decision("bob", "webpics", "browser", "permit"))
	}
	start := time.Now()
	for l.Len() < 10 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(FlushInterval)
	for countOnDisk(t, base) < 10 {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("%d of 10 events on disk without Flush or Close", countOnDisk(t, base))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPipelineBatchIsOneContiguousRun: EnqueueBatch is one channel send, so
// a batch's events take consecutive sequence numbers even while other
// producers enqueue concurrently.
func TestPipelineBatchIsOneContiguousRun(t *testing.T) {
	var log Log
	p := NewPipeline(&log, 4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Enqueue(Event{Type: EventPolicyCreated, Owner: "bob"})
			}
		}()
	}
	for b := 0; b < 50; b++ {
		batch := make([]Event, 16)
		for i := range batch {
			batch[i] = Event{Type: EventDecision, Owner: "bob", Detail: fmt.Sprint(b)}
		}
		p.EnqueueBatch(batch)
	}
	wg.Wait()
	p.Flush()
	first := map[string]int64{}
	for _, e := range log.Query(Filter{Type: EventDecision}) {
		if s, ok := first[e.Detail]; !ok {
			first[e.Detail] = e.Seq
		} else if e.Seq-s >= 16 {
			t.Fatalf("batch %s spans seq %d..%d: split across sends", e.Detail, s, e.Seq)
		}
	}
	if len(first) != 50 || log.Len() != 50*16+4*200 {
		t.Fatalf("%d batches, %d events", len(first), log.Len())
	}
}

// countOnDisk counts the complete records in the segment files under base.
func countOnDisk(t *testing.T, base string) int {
	t.Helper()
	segs, err := seglog.List(base)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range segs {
		data, err := os.ReadFile(s.Path)
		if err != nil {
			t.Fatal(err)
		}
		scanBytes(data, func(Event) bool { n++; return true })
	}
	return n
}
