package token

import (
	"sync/atomic"
	"testing"
	"time"

	"umac/internal/memo"
)

// BenchmarkValidate measures Validate on a token the memo holds (hit) and
// on tokens it does not (miss: the HMAC, base64 and JSON check plus the
// memo insert and eviction), from one goroutine and from every P at once.
// The miss rows cycle through four memos' worth of distinct tokens, so
// each one has been evicted before it comes round again.
func BenchmarkValidate(b *testing.B) {
	s := NewService([]byte("bench-key"), time.Hour)
	toks := make([]string, 4*memo.Size)
	for i := range toks {
		tok, _, err := s.Mint("gallery", "alice", "webpics", "travel")
		if err != nil {
			b.Fatal(err)
		}
		toks[i] = tok
	}
	validate := func(b *testing.B, tok string) {
		if _, err := s.Validate(tok); err != nil {
			b.Error(err) // Fatal may not be called from RunParallel's goroutines
		}
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			validate(b, toks[0])
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := range b.N {
			validate(b, toks[i%len(toks)])
		}
	})
	b.Run("miss-parallel", func(b *testing.B) {
		b.ReportAllocs()
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				validate(b, toks[next.Add(1)%int64(len(toks))])
			}
		})
	})
}
