package pep

import (
	"net/http"
	"net/url"
	"strings"
	"testing"

	"umac/internal/core"
)

// extractTokenReference is ExtractToken as it was when it read the header
// through Header.Get: the oracle FuzzExtractToken holds the function to.
func extractTokenReference(r *http.Request) (string, bool) {
	if h := r.Header.Get("Authorization"); h != "" {
		scheme, tok, ok := strings.Cut(h, " ")
		if ok && (strings.EqualFold(scheme, TokenScheme) || strings.EqualFold(scheme, "Bearer")) {
			return strings.TrimSpace(tok), tok != ""
		}
	}
	if t := r.URL.Query().Get(core.ParamToken); t != "" {
		return t, true
	}
	return "", false
}

// FuzzExtractToken: ExtractToken returns exactly what the reference
// returns for any Authorization header — absent, one value or two — and
// any query string. The header is untrusted Requester input.
func FuzzExtractToken(f *testing.F) {
	for _, seed := range []struct {
		first, second string
		values        uint8
		query         string
	}{
		{"UMAC tok", "", 1, ""},
		{"umac tok", "", 1, ""},
		{"Bearer tok", "", 1, ""},
		{"UMAC   ", "", 1, ""},
		{"UMAC first", "UMAC second", 2, ""},
		{"", "", 0, "token=tokQ"},
		{"Basic dXNlcg==", "", 1, "token=tokQ"},
	} {
		f.Add(seed.first, seed.second, seed.values, seed.query)
	}
	f.Fuzz(func(t *testing.T, first, second string, values uint8, query string) {
		r := &http.Request{URL: &url.URL{RawQuery: query}, Header: http.Header{}}
		switch values % 3 {
		case 1:
			r.Header["Authorization"] = []string{first}
		case 2:
			r.Header["Authorization"] = []string{first, second}
		}
		gotTok, gotOK := ExtractToken(r)
		wantTok, wantOK := extractTokenReference(r)
		if gotTok != wantTok || gotOK != wantOK {
			t.Fatalf("Authorization %q, query %q: ExtractToken = (%q, %v), reference = (%q, %v)",
				r.Header["Authorization"], query, gotTok, gotOK, wantTok, wantOK)
		}
	})
}
