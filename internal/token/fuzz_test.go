package token

import (
	"strings"
	"testing"
	"time"

	"umac/internal/core"
)

// alphabet is the base64url alphabet tokens are spelled in.
const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"

// FuzzTokenValidate: under a fixed key and clock, Validate accepts a
// string only if it is byte-identical to one Mint returned. Mint draws a
// random token ID, so the harness mints from fuzzed claims and then
// rewrites one byte, counted from the end of the token: a replacement
// below 64 moves the character that many places within the alphabet (by
// XOR, so 0 keeps it and the seeds reproduce whatever the ID), any other
// replacement is written as is. The unchanged token must validate and
// every other spelling must not.
func FuzzTokenValidate(f *testing.F) {
	f.Add("gallery", "alice", "webpics", "travel", uint16(0), byte(0))
	f.Add("gallery", "", "webpics", "travel", uint16(44), byte('.'))
	f.Add("gallery", "alice", "webpics", "travel", uint16(3), byte('\n'))
	f.Fuzz(func(t *testing.T, requester, subject, host, realm string, pos uint16, repl byte) {
		s := newTestService()
		now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		s.SetClock(func() time.Time { return now })
		tok, _, err := s.Mint(core.RequesterID(requester), core.UserID(subject), core.HostID(host), core.RealmID(realm))
		if err != nil {
			return
		}
		i := len(tok) - 1 - int(pos)%len(tok)
		b := repl
		if repl < 64 {
			if j := strings.IndexByte(alphabet, tok[i]); j >= 0 {
				b = alphabet[j^int(repl)]
			}
		}
		respelled := tok[:i] + string(b) + tok[i+1:]
		_, err = s.Validate(respelled)
		switch {
		case respelled == tok && err != nil:
			t.Fatalf("Validate rejected the minted token %q: %v", tok, err)
		case respelled != tok && err == nil:
			t.Fatalf("Validate accepted %q, a respelling of the minted %q", respelled, tok)
		}
	})
}

// TestValidateRejectsLineBreaks: the base64 decoder skips CR and LF, so a
// token with a line break inserted would otherwise decode to the minted
// bytes.
func TestValidateRejectsLineBreaks(t *testing.T) {
	s := newTestService()
	tok, _, err := s.Mint("gallery", "alice", "webpics", "travel")
	if err != nil {
		t.Fatal(err)
	}
	for _, respelled := range []string{tok[:5] + "\n" + tok[5:], tok + "\r\n"} {
		if _, err := s.Validate(respelled); err == nil {
			t.Errorf("Validate accepted %q", respelled)
		}
	}
}
