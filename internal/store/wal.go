package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"umac/internal/seglog"
)

// The write-ahead log is a segmented log (internal/seglog: framing,
// segment naming, torn-tail replay, single-write batch appends, seal and
// roll) rooted at "<state>.wal" whose record payload is the JSON encoding
// of walRecord. Compaction after a snapshot deletes the sealed segments
// and truncates the active one (seglog.Log.Reset).

// Operations recorded in the log.
const (
	opPut    = "put"
	opDelete = "del"
)

// walRecord is one logged mutation. Seq is the global replication sequence
// number (see replication.go); logs written before sequence numbering carry
// Seq 0 and are renumbered on replay.
type walRecord struct {
	Seq     int64           `json:"seq,omitempty"`
	Op      string          `json:"op"`
	Kind    string          `json:"kind"`
	Key     string          `json:"key"`
	Version int64           `json:"version,omitempty"`
	Data    json.RawMessage `json:"data,omitempty"`
}

// DefaultWALSegmentSize is the roll threshold for WAL segments.
const DefaultWALSegmentSize = seglog.DefaultSegmentSize

// encodeRecord frames one record for appending: header plus JSON payload.
func encodeRecord(rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: wal encode: %w", err)
	}
	return seglog.AppendFrame(make([]byte, 0, seglog.HeaderSize+len(payload)), payload), nil
}

// decodeRecord is the replay callback's decoder: an undecodable payload
// ends the segment's scan like a bad checksum.
func decodeRecord(payload []byte, out *[]walRecord) bool {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return false
	}
	*out = append(*out, rec)
	return true
}

// walSegment describes one segment file of the WAL.
type walSegment struct {
	path string
	size int64
}

// listSegments finds the on-disk segments of the log rooted at base,
// ascending by index.
func listSegments(base string) ([]walSegment, error) {
	segs, err := seglog.List(base)
	if err != nil {
		return nil, fmt.Errorf("store: wal: %w", err)
	}
	out := make([]walSegment, len(segs))
	for i, s := range segs {
		out[i] = walSegment{path: s.Path, size: s.Size}
	}
	return out, nil
}

// openWAL opens the segmented log rooted at base and returns every intact
// record across all segments in order (see seglog.Open for the torn-tail
// and corruption rules).
func openWAL(base string, fsync bool, segLimit int64) (*seglog.Log, []walRecord, error) {
	var records []walRecord
	w, err := seglog.Open(base, seglog.Options{SegmentSize: segLimit, Fsync: fsync},
		func(p []byte) bool { return decodeRecord(p, &records) })
	if err != nil {
		return nil, nil, fmt.Errorf("store: open wal: %w", err)
	}
	return w, records, nil
}

// WALInfo summarizes a segmented log on disk, as VerifyWAL reads it.
type WALInfo struct {
	// Segments is the number of on-disk segment files.
	Segments int
	// Records is the count of intact records across all segments.
	Records int
	// FirstSeq and LastSeq bound the sequence numbers seen (0 when empty).
	FirstSeq int64
	LastSeq  int64
	// Contiguous reports whether every record's sequence number is exactly
	// its predecessor's plus one.
	Contiguous bool
	// TornBytes is the length of the discardable tail after the last intact
	// record in the final segment (0 for a clean shutdown).
	TornBytes int64
}

// VerifyWAL audits the segmented log rooted at base without applying or
// modifying anything: sealed segments must be fully intact, a torn tail is
// tolerated only in the final segment, and the info reports whether
// sequence numbers are contiguous. The crash-consistency suite and ops
// tooling use it to inspect a log left behind by a killed process.
func VerifyWAL(base string) (WALInfo, error) {
	segs, err := listSegments(base)
	if err != nil {
		return WALInfo{}, err
	}
	if info, err := os.Stat(base); err == nil && !info.IsDir() {
		// A not-yet-adopted flat log orders before every segment.
		segs = append([]walSegment{{path: base, size: info.Size()}}, segs...)
	}
	out := WALInfo{Segments: len(segs), Contiguous: true}
	for i, seg := range segs {
		f, err := os.Open(seg.path)
		if err != nil {
			return WALInfo{}, fmt.Errorf("store: verify wal: %w", err)
		}
		var recs []walRecord
		good, err := seglog.Scan(io.NewSectionReader(f, 0, seg.size), seg.size,
			func(p []byte) bool { return decodeRecord(p, &recs) })
		f.Close()
		if err != nil {
			return WALInfo{}, fmt.Errorf("store: verify wal: %w", err)
		}
		if i < len(segs)-1 && good != seg.size {
			return WALInfo{}, fmt.Errorf("store: wal segment %s corrupt at offset %d of %d", seg.path, good, seg.size)
		}
		if i == len(segs)-1 {
			out.TornBytes = seg.size - good
		}
		for _, rec := range recs {
			if out.Records == 0 {
				out.FirstSeq = rec.Seq
			} else if rec.Seq != out.LastSeq+1 {
				out.Contiguous = false
			}
			out.LastSeq = rec.Seq
			out.Records++
		}
	}
	return out, nil
}
