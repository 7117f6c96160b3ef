package audit

import (
	"encoding/binary"
	"time"

	"umac/internal/core"
)

// One event is one seglog record. The payload is hand-encoded, integers as
// varints and strings as a uvarint length followed by the bytes:
//
//	seq | unix seconds | nanoseconds | type | owner | host | realm |
//	resource | requester | subject | action | decision | detail
//
// type and decision are one byte: the index of a value the AM writes in
// typeNames / decisionNames, or 0 followed by the string itself, so any
// Event round-trips exactly. A decision event is ~130 bytes framed.

var typeNames = [...]EventType{
	"", EventPairingCreated, EventPairingRevoked, EventPolicyCreated,
	EventPolicyUpdated, EventPolicyDeleted, EventResourceLinked,
	EventTokenIssued, EventTokenRefused, EventDecision,
	EventConsentRequest, EventConsentResolved, EventOwnerMigrated,
}

var decisionNames = [...]string{"", "permit", "deny"}

// appendEvent appends the payload encoding of e to b.
func appendEvent(b []byte, e *Event) []byte {
	b = binary.AppendVarint(b, e.Seq)
	b = binary.AppendVarint(b, e.Time.Unix())
	b = binary.AppendUvarint(b, uint64(e.Time.Nanosecond()))
	b = appendCoded(b, string(e.Type), typeNames[:])
	b = appendString(b, string(e.Owner))
	b = appendString(b, string(e.Host))
	b = appendString(b, string(e.Realm))
	b = appendString(b, string(e.Resource))
	b = appendString(b, string(e.Requester))
	b = appendString(b, string(e.Subject))
	b = appendString(b, string(e.Action))
	b = appendCoded(b, e.Decision, decisionNames[:])
	return appendString(b, e.Detail)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendCoded[S ~string](b []byte, s string, names []S) []byte {
	for i := 1; i < len(names); i++ {
		if string(names[i]) == s {
			return append(b, byte(i))
		}
	}
	return appendString(append(b, 0), s)
}

// decodeEvent is appendEvent's inverse. It rejects anything appendEvent
// cannot have produced, trailing bytes included.
func decodeEvent(p []byte) (Event, bool) {
	d := decoder{b: p}
	var e Event
	e.Seq = d.varint()
	sec := d.varint()
	nsec := d.uvarint()
	if nsec >= uint64(time.Second) {
		return Event{}, false
	}
	e.Time = time.Unix(sec, int64(nsec))
	e.Type = EventType(decodeCoded(&d, typeNames[:]))
	e.Owner = core.UserID(d.str())
	e.Host = core.HostID(d.str())
	e.Realm = core.RealmID(d.str())
	e.Resource = core.ResourceID(d.str())
	e.Requester = core.RequesterID(d.str())
	e.Subject = core.UserID(d.str())
	e.Action = core.Action(d.str())
	e.Decision = decodeCoded(&d, decisionNames[:])
	e.Detail = d.str()
	if d.bad || len(d.b) != 0 {
		return Event{}, false
	}
	return e, true
}

func decodeCoded[S ~string](d *decoder, names []S) string {
	if len(d.b) == 0 {
		d.bad = true
		return ""
	}
	c := d.b[0]
	d.b = d.b[1:]
	switch {
	case c == 0:
		return d.str()
	case int(c) < len(names):
		return string(names[c])
	}
	d.bad = true
	return ""
}

// decoder walks a payload; the first malformed field sets bad and every
// later read returns a zero value.
type decoder struct {
	b   []byte
	bad bool
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.bad, d.b = true, nil
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.bad, d.b = true, nil
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.bad, d.b = true, nil
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}
