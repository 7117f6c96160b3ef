package httpsig

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// FuzzReplayFilter runs the bucketed filter beside its specification, a
// map of every (pairing, timestamp, nonce) ever admitted. Each three-byte
// op advances a monotonic clock and presents a triple whose timestamp is
// inside the skew window, as Verify's skew check guarantees; the filter
// must refuse exactly the triples the model holds, and must have dropped
// every bucket whose timestamps all lie 2·MaxSkew before the newest
// admitted timestamp's bucket.
func FuzzReplayFilter(f *testing.F) {
	f.Add([]byte{0, 0, 128, 0, 0, 128, 255, 1, 0, 255, 1, 0})
	f.Add([]byte{10, 4, 255, 250, 4, 255, 250, 4, 255, 250, 4, 255})
	f.Add(bytes.Repeat([]byte{3, 9, 17}, 200))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var filter replayFilter
		filter.init()
		type triple struct {
			pairing string
			ts      int64
			nonce   string
		}
		seen := map[triple]bool{}
		skew := int64(MaxSkew / time.Second)
		now := int64(1_700_000_000)
		var newest int64
		for ; len(ops) >= 3; ops = ops[3:] {
			now += int64(ops[0])
			tr := triple{
				pairing: "pair-" + strconv.Itoa(int(ops[1]%3)),
				ts:      now - skew + int64(ops[2])*2*skew/255,
				nonce:   "n-" + strconv.Itoa(int(ops[1]>>2)),
			}
			err := filter.admit(tr.pairing, tr.ts, tr.nonce)
			if seen[tr] {
				if !errors.Is(err, ErrReplay) {
					t.Fatalf("replay of %+v at %d admitted: %v", tr, now, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("fresh %+v at %d refused: %v", tr, now, err)
			}
			seen[tr] = true
			newest = max(newest, tr.ts/bucketSeconds)
			for _, b := range filter.buckets {
				if b.keys != nil && (b.period+1)*bucketSeconds <= newest*bucketSeconds-2*skew {
					t.Fatalf("bucket of period %d still held after period %d", b.period, newest)
				}
			}
		}
	})
}

// FuzzVerify signs a request, changes one component of it — method,
// path, body or one signature header — and verifies it. Verify must never
// panic, must accept the request exactly when every signed component is
// unchanged, and must refuse a second acceptance as a replay.
func FuzzVerify(f *testing.F) {
	f.Add("POST", "/v1/api/decision", []byte(`{"realm":"r"}`), uint8(0), "")
	f.Add("GET", "/v1/events/invalidation", []byte{}, uint8(1), "DELETE")
	f.Add("POST", "/v1/api/decision/batch", []byte("x"), uint8(2), "/v1/api/protect")
	f.Add("POST", "/x", []byte("x"), uint8(3), "y")
	f.Add("POST", "/x", []byte("x"), uint8(4), "+0")
	f.Add("POST", "/x", []byte("x"), uint8(5), "n-0")
	f.Add("POST", "/x", []byte("x"), uint8(6), "AAAA")
	f.Add("POST", "/x", []byte("x"), uint8(7), "pair-2")
	f.Fuzz(func(t *testing.T, method, path string, body []byte, which uint8, repl string) {
		req, err := http.NewRequest(method, "http://am.example/", bytes.NewReader(body))
		if err != nil {
			return
		}
		req.URL.Path = path
		SignBody(req, testPairing, testSecret, body)
		ts, _ := strconv.ParseInt(req.Header.Get(HeaderTimestamp), 10, 64)
		unchanged := true
		header := func(name string, same func(string) bool) {
			unchanged = same(req.Header.Get(name))
			req.Header.Set(name, repl)
		}
		switch which % 8 {
		case 1:
			unchanged = repl == req.Method
			req.Method = repl
		case 2:
			unchanged = repl == req.URL.Path
			req.URL.Path = repl
		case 3:
			unchanged = repl == string(body)
			body = []byte(repl)
		case 4:
			header(HeaderTimestamp, func(string) bool {
				n, err := strconv.ParseInt(repl, 10, 64)
				return err == nil && n == ts
			})
		case 5:
			header(HeaderNonce, func(old string) bool { return repl == old })
		case 6:
			header(HeaderSignature, func(old string) bool { return repl == old })
		case 7:
			header(HeaderPairing, func(old string) bool { return repl == old })
		}
		v := testVerifier()
		verify := func() error {
			req.Body = io.NopCloser(bytes.NewReader(body))
			_, err := v.Verify(req)
			return err
		}
		err = verify()
		if unchanged != (err == nil) {
			t.Fatalf("component %d changed=%v: Verify err = %v", which%8, !unchanged, err)
		}
		if err == nil {
			if err := verify(); !errors.Is(err, ErrReplay) {
				t.Fatalf("second acceptance: err = %v, want ErrReplay", err)
			}
		}
	})
}
