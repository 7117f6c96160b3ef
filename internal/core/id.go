package core

import (
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
)

// NewID returns a fresh 128-bit random identifier with the given prefix,
// rendered as prefix-hex. Identifiers are unguessable so they can appear in
// redirect URLs (e.g. consent tickets) without leaking enumerable state.
func NewID(prefix string) string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure means the platform RNG is broken; there is no
		// safe fallback for identifiers that gate authorization state.
		panic(fmt.Sprintf("core: crypto/rand unavailable: %v", err))
	}
	return prefix + "-" + hex.EncodeToString(b[:])
}

// NewSecret returns n cryptographically random bytes base64url-encoded.
// Used for pairing channel keys and token-service master keys.
func NewSecret(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("core: crypto/rand unavailable: %v", err))
	}
	return base64.RawURLEncoding.EncodeToString(b)
}

// segmentEncoding is unpadded base64url that rejects non-zero unused bits
// in the final character.
var segmentEncoding = base64.RawURLEncoding.Strict()

// DecodeSegment decodes one unpadded base64url segment of a signed
// artefact — a token, an identity assertion, a request signature —
// accepting only its canonical spelling, so two distinct strings never
// decode to the same bytes. Strict decoding rejects stray low bits in the
// last character; the length check rejects the CR and LF characters the
// decoder would otherwise skip.
func DecodeSegment(s string) ([]byte, error) {
	b, err := segmentEncoding.DecodeString(s)
	if err == nil && segmentEncoding.EncodedLen(len(b)) != len(s) {
		err = errors.New("core: base64 segment carries line breaks")
	}
	return b, err
}
