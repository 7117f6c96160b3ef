package audit

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"umac/internal/core"
	"umac/internal/seglog"
)

// validPrefix is an independent reader of a segment's bytes: the events of
// the records before the first short, checksum-failing or undecodable one,
// and the offset just past them.
func validPrefix(b []byte) ([]Event, int64) {
	var out []Event
	off := 0
	for len(b)-off >= seglog.HeaderSize {
		n := int(binary.LittleEndian.Uint32(b[off:]))
		sum := binary.LittleEndian.Uint32(b[off+4:])
		if n > len(b)-off-seglog.HeaderSize {
			break
		}
		p := b[off+seglog.HeaderSize : off+seglog.HeaderSize+n]
		if crc32.ChecksumIEEE(p) != sum {
			break
		}
		e, ok := decodeEvent(p)
		if !ok {
			break
		}
		out = append(out, e)
		off += seglog.HeaderSize + n
	}
	return out, int64(off)
}

func fuzzSegment() []byte {
	var b []byte
	for _, e := range []Event{
		{Seq: 1, Time: time.Unix(1_700_000_000, 5), Type: EventPolicyCreated, Owner: "bob", Subject: "bob", Detail: "pol-1"},
		{Seq: 2, Time: time.Unix(1_700_000_001, 0), Type: EventDecision, Owner: "bob", Host: "webpics", Realm: "travel",
			Resource: "photo", Requester: "browser", Action: "read", Decision: "permit", Detail: "permitted by pol-1"},
		{Seq: 3, Time: time.Unix(1_700_000_002, 999_999_999), Type: "x-custom", Owner: "alice", Decision: "maybe"},
	} {
		b = seglog.AppendFrame(b, appendEvent(nil, &e))
	}
	return b
}

// FuzzAuditSegmentReplay: arbitrary bytes as the last segment never panic
// Open, replay returns exactly the leading CRC-valid, decodable records,
// the torn tail is truncated away, and reopening yields the same records.
func FuzzAuditSegmentReplay(f *testing.F) {
	seg := fuzzSegment()
	f.Add(seg)
	f.Add(seg[:len(seg)-3])
	for _, at := range []int{18, 20} { // inside owner "bob"; host's length
		flipped := append([]byte(nil), seg...)
		flipped[at] ^= 0xff
		f.Add(flipped)
	}
	f.Add(append(append([]byte(nil), seg...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	f.Add([]byte{})
	f.Add([]byte("not a frame at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		base := filepath.Join(t.TempDir(), "audit")
		path := seglog.SegmentPath(base, 1)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, good := validPrefix(data)
		l, err := Open(base, 0)
		if err != nil {
			t.Fatalf("open over arbitrary tail: %v", err)
		}
		got := l.Query(Filter{})
		if len(got) != len(want) || l.Len() != len(want) {
			t.Fatalf("replayed %d events (Len %d), want %d", len(got), l.Len(), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != good {
			t.Fatalf("segment is %d bytes, want its intact prefix of %d", info.Size(), good)
		}
		re, err := Open(base, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		again := re.Query(Filter{})
		if len(again) != len(got) {
			t.Fatalf("reopen replayed %d events, first open %d", len(again), len(got))
		}
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("reopen event %d = %+v, first open %+v", i, again[i], got[i])
			}
		}
	})
}

// FuzzAuditRecordRoundTrip: any Event encodes and decodes exactly, and the
// decoder survives arbitrary bytes.
func FuzzAuditRecordRoundTrip(f *testing.F) {
	f.Add(int64(2), int64(1_700_000_001), uint32(0), "decision", "bob", "webpics", "travel", "photo",
		"browser", "", "read", "permit", "permitted by pol-1")
	f.Add(int64(0), int64(-62135596800), uint32(0), "", "", "", "", "", "", "", "", "", "")
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), uint32(999_999_999), "x-custom", "ü\x00", "h", "r", "s",
		"q", "subj", "share", "maybe", strings.Repeat("z", 300))
	f.Fuzz(func(t *testing.T, seq, sec int64, nsec uint32, typ, owner, host, realm, resource, requester,
		subject, action, decision, detail string) {
		e := Event{
			Seq: seq, Time: time.Unix(sec, int64(nsec%uint32(time.Second))), Type: EventType(typ),
			Owner: core.UserID(owner), Host: core.HostID(host), Realm: core.RealmID(realm),
			Resource: core.ResourceID(resource), Requester: core.RequesterID(requester),
			Subject: core.UserID(subject), Action: core.Action(action),
			Decision: decision, Detail: detail,
		}
		p := appendEvent(nil, &e)
		got, ok := decodeEvent(p)
		if !ok {
			t.Fatalf("decode rejected its own encoding of %+v", e)
		}
		if got != e {
			t.Fatalf("round trip: got %+v, want %+v", got, e)
		}
		decodeEvent([]byte(detail))
		decodeEvent(p[:len(p)/2])
	})
}
