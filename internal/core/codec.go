package core

import (
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the wire codec of the four decision envelopes: the Fig. 6
// query and response and their batched forms. Every cache-missing access on
// every Host crosses it twice, so it works on byte slices with no
// reflection: AppendJSON appends to a caller's buffer, DecodeJSON reads a
// complete body.
//
// encoding/json is the reference both directions are tested against
// (FuzzDecisionQueryCodec and friends):
//
//   - AppendJSON writes exactly what json.Marshal writes: omitempty fields
//     left out, <, > and & escaped as \u003c, \u003e and \u0026, U+2028
//     and U+2029 escaped, invalid UTF-8 written as \ufffd, nil slices as
//     null.
//   - DecodeJSON accepts what json.Unmarshal accepts and decodes it to the
//     same value: keys match case-insensitively (Unicode simple folding, so
//     "HOST" and "hoſt" both name host), the last of duplicate keys wins, an
//     items or results array given twice decodes into the elements the
//     first one left, null leaves a field alone, escapes and invalid UTF-8
//     decode as encoding/json decodes them, and nesting deeper than 10000
//     is refused. Queries also refuse unknown fields, as the AM's
//     DisallowUnknownFields decoder did. Responses skip unknown fields, as
//     docs/PROTOCOL.md requires of clients.
//
// DecodeJSON refuses two inputs the AM's stream decoder (webutil.ReadJSON)
// and amclient's response decoder let through: anything but whitespace
// after the value (ReadJSON's More() passed a trailing "}" or "]", and the
// response decoder never looked past the value), and a receiver's earlier
// contents (DecodeJSON resets the receiver first, so a reused envelope
// never carries a field of the previous body into the next).
//
// Decoded strings are copies: the body buffer may be reused as soon as
// DecodeJSON returns.

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// AppendJSON appends q in json.Marshal's encoding.
func (q *DecisionQuery) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"pairing_id":`...)
	dst = appendJSONString(dst, q.PairingID)
	dst = append(dst, `,"host":`...)
	dst = appendJSONString(dst, string(q.Host))
	dst = append(dst, `,"realm":`...)
	dst = appendJSONString(dst, string(q.Realm))
	dst = append(dst, `,"resource":`...)
	dst = appendJSONString(dst, string(q.Resource))
	dst = append(dst, `,"action":`...)
	dst = appendJSONString(dst, string(q.Action))
	dst = append(dst, `,"token":`...)
	dst = appendJSONString(dst, q.Token)
	return append(dst, '}')
}

// AppendJSON appends r in json.Marshal's encoding.
func (r *DecisionResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	dst = r.appendFields(dst)
	return append(dst, '}')
}

func (r *DecisionResponse) appendFields(dst []byte) []byte {
	dst = append(dst, `"decision":`...)
	dst = appendJSONString(dst, r.Decision)
	dst = append(dst, `,"cache_ttl_seconds":`...)
	dst = strconv.AppendInt(dst, int64(r.CacheTTLSeconds), 10)
	if r.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendJSONString(dst, r.Reason)
	}
	if r.TokenProblem {
		dst = append(dst, `,"token_problem":true`...)
	}
	return dst
}

// AppendJSON appends q in json.Marshal's encoding.
func (q *BatchDecisionQuery) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"pairing_id":`...)
	dst = appendJSONString(dst, q.PairingID)
	dst = append(dst, `,"host":`...)
	dst = appendJSONString(dst, string(q.Host))
	if q.Token != "" {
		dst = append(dst, `,"token":`...)
		dst = appendJSONString(dst, q.Token)
	}
	dst = append(dst, `,"items":`...)
	if q.Items == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range q.Items {
			if i > 0 {
				dst = append(dst, ',')
			}
			it := &q.Items[i]
			dst = append(dst, `{"realm":`...)
			dst = appendJSONString(dst, string(it.Realm))
			dst = append(dst, `,"resource":`...)
			dst = appendJSONString(dst, string(it.Resource))
			dst = append(dst, `,"action":`...)
			dst = appendJSONString(dst, string(it.Action))
			if it.Token != "" {
				dst = append(dst, `,"token":`...)
				dst = appendJSONString(dst, it.Token)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// AppendJSON appends r in json.Marshal's encoding.
func (r *BatchDecisionResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"results":`...)
	if r.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			res := &r.Results[i]
			dst = append(dst, '{')
			dst = res.appendFields(dst)
			if res.Error != "" {
				dst = append(dst, `,"error":`...)
				dst = appendJSONString(dst, res.Error)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString is encoding/json's string encoder with HTML escaping on.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if c == 0x2028 || c == 0x2029 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// DecodeJSON resets q and decodes the body b into it. Unknown fields and
// trailing data are refused.
func (q *DecisionQuery) DecodeJSON(b []byte) error {
	*q = DecisionQuery{}
	d := jsonIn{b: b, strict: true}
	return d.document(func(key []byte) error {
		switch {
		case keyIs(key, "pairing_id", "PAIRING_ID"):
			return d.str(&q.PairingID, "", "")
		case keyIs(key, "host", "HOST"):
			return d.str((*string)(&q.Host), "", "")
		case keyIs(key, "realm", "REALM"):
			return d.str((*string)(&q.Realm), "", "")
		case keyIs(key, "resource", "RESOURCE"):
			return d.str((*string)(&q.Resource), "", "")
		case keyIs(key, "action", "ACTION"):
			return d.str((*string)(&q.Action), "", "")
		case keyIs(key, "token", "TOKEN"):
			return d.str(&q.Token, "", "")
		}
		return d.unknown(key)
	})
}

// DecodeJSON resets r and decodes the body b into it. Unknown fields are
// skipped; trailing data is refused.
func (r *DecisionResponse) DecodeJSON(b []byte) error {
	*r = DecisionResponse{}
	d := jsonIn{b: b}
	return d.document(func(key []byte) error { return d.decisionMember(key, r, nil, r) })
}

var (
	decisionPermit = DecisionPermit.String()
	decisionDeny   = DecisionDeny.String()
)

// decisionMember decodes one member of a response object. errField is a
// batch result's error member (nil for a single response); prev is the
// previous batch result's response, whose reason is reused when equal.
func (d *jsonIn) decisionMember(key []byte, r *DecisionResponse, errField *string, prev *DecisionResponse) error {
	switch {
	case keyIs(key, "decision", "DECISION"):
		return d.str(&r.Decision, decisionPermit, decisionDeny)
	case keyIs(key, "cache_ttl_seconds", "CACHE_TTL_SECONDS"):
		return d.intField(&r.CacheTTLSeconds)
	case keyIs(key, "reason", "REASON"):
		return d.str(&r.Reason, prev.Reason, "")
	case keyIs(key, "token_problem", "TOKEN_PROBLEM"):
		return d.boolField(&r.TokenProblem)
	case errField != nil && keyIs(key, "error", "ERROR"):
		return d.str(errField, "", "")
	}
	return d.unknown(key)
}

// DecodeJSON resets q, keeping the capacity of q.Items, and decodes the
// body b into it. Unknown fields and trailing data are refused.
func (q *BatchDecisionQuery) DecodeJSON(b []byte) error {
	*q = BatchDecisionQuery{Items: q.Items[:0]}
	d := jsonIn{b: b, strict: true}
	item := func(it, prev *BatchDecisionItem) error {
		return d.object(func(key []byte) error {
			switch {
			case keyIs(key, "realm", "REALM"):
				return d.str((*string)(&it.Realm), string(prev.Realm), "")
			case keyIs(key, "resource", "RESOURCE"):
				return d.str((*string)(&it.Resource), "", "")
			case keyIs(key, "action", "ACTION"):
				return d.str((*string)(&it.Action), string(prev.Action), "")
			case keyIs(key, "token", "TOKEN"):
				return d.str(&it.Token, prev.Token, "")
			}
			return d.unknown(key)
		})
	}
	return d.document(func(key []byte) error {
		switch {
		case keyIs(key, "pairing_id", "PAIRING_ID"):
			return d.str(&q.PairingID, "", "")
		case keyIs(key, "host", "HOST"):
			return d.str((*string)(&q.Host), "", "")
		case keyIs(key, "token", "TOKEN"):
			return d.str(&q.Token, "", "")
		case keyIs(key, "items", "ITEMS"):
			var err error
			q.Items, err = array(&d, q.Items, item)
			return err
		}
		return d.unknown(key)
	})
}

// DecodeJSON resets r, keeping the capacity of r.Results, and decodes the
// body b into it. Unknown fields are skipped; trailing data is refused.
func (r *BatchDecisionResponse) DecodeJSON(b []byte) error {
	*r = BatchDecisionResponse{Results: r.Results[:0]}
	d := jsonIn{b: b}
	result := func(res, prev *BatchDecisionResult) error {
		return d.object(func(key []byte) error {
			return d.decisionMember(key, &res.DecisionResponse, &res.Error, &prev.DecisionResponse)
		})
	}
	return d.document(func(key []byte) error {
		if !keyIs(key, "results", "RESULTS") {
			return d.unknown(key)
		}
		var err error
		r.Results, err = array(&d, r.Results, result)
		return err
	})
}

// jsonIn is a cursor over one JSON body.
type jsonIn struct {
	b      []byte
	i      int
	depth  int
	strict bool // refuse unknown fields
	// scratch holds a string whose escapes had to be rewritten.
	scratch []byte
}

// decodeError reports a body the decision codec refused.
type decodeError struct {
	offset int
	msg    string
}

func (e *decodeError) Error() string {
	return fmt.Sprintf("core: decode body: %s at offset %d", e.msg, e.offset)
}

func (d *jsonIn) fail(msg string) error { return &decodeError{offset: d.i, msg: msg} }

var errDepth = errors.New("core: decode body: exceeded max depth")

// document decodes the one top-level value, an object whose members go to
// field, then allows only whitespace.
func (d *jsonIn) document(field func(key []byte) error) error {
	d.space()
	if err := d.object(field); err != nil {
		return err
	}
	d.space()
	if d.i != len(d.b) {
		return d.fail("trailing data after JSON value")
	}
	return nil
}

// object decodes an object at the cursor, handing each member's unescaped
// key to field, which must consume the value. As in encoding/json, null
// decodes into a struct as a no-op. The key aliases the body or the
// scratch buffer until the next string is read.
func (d *jsonIn) object(field func(key []byte) error) error {
	if d.literal("null") {
		return nil
	}
	if d.i >= len(d.b) || d.b[d.i] != '{' {
		return d.typeError()
	}
	if err := d.open(); err != nil {
		return err
	}
	for n := 0; ; n++ {
		key, ok, err := d.member(n == 0)
		if err != nil || !ok {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
	}
}

// open enters the object or array at the cursor.
func (d *jsonIn) open() error {
	d.i++
	d.depth++
	if d.depth > maxJSONDepth {
		return errDepth
	}
	return nil
}

// member advances to the next member of the open object and returns its
// key, positioned at the value; ok is false at the closing brace.
func (d *jsonIn) member(first bool) (key []byte, ok bool, err error) {
	d.space()
	if d.i >= len(d.b) {
		return nil, false, d.fail("unexpected end of JSON input")
	}
	switch c := d.b[d.i]; {
	case c == '}':
		d.i++
		d.depth--
		return nil, false, nil
	case !first && c == ',':
		d.i++
		d.space()
	case !first:
		return nil, false, d.fail("expected , or } after object member")
	}
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, false, d.fail("expected string object key")
	}
	if key, err = d.stringBytes(); err != nil {
		return nil, false, err
	}
	d.space()
	if d.i >= len(d.b) || d.b[d.i] != ':' {
		return nil, false, d.fail("expected : after object key")
	}
	d.i++
	d.space()
	return key, true, nil
}

// array decodes an array at the cursor into the elements of s through
// elem, which also gets the element before (the first gets itself) to
// reuse its strings. As in encoding/json, null decodes as a nil slice, []
// as an empty one, and an element s already holds — from an array given
// twice — is decoded into, not reset.
func array[T any](d *jsonIn, s []T, elem func(e, prev *T) error) ([]T, error) {
	if d.literal("null") {
		return nil, nil
	}
	if d.i >= len(d.b) || d.b[d.i] != '[' {
		return s, d.typeError()
	}
	if err := d.open(); err != nil {
		return s, err
	}
	n := 0
	for ; ; n++ {
		more, err := d.element(n == 0)
		if err != nil {
			return s, err
		}
		if !more {
			break
		}
		if n == len(s) {
			var zero T
			s = append(s, zero)
		}
		if err := elem(&s[n], &s[max(n-1, 0)]); err != nil {
			return s, err
		}
	}
	if n == 0 {
		return []T{}, nil
	}
	return s[:n], nil
}

// element advances to the next element of the open array; more is false
// at the closing bracket.
func (d *jsonIn) element(first bool) (more bool, err error) {
	d.space()
	if d.i >= len(d.b) {
		return false, d.fail("unexpected end of JSON input")
	}
	switch c := d.b[d.i]; {
	case c == ']':
		d.i++
		d.depth--
		return false, nil
	case !first && c == ',':
		d.i++
		d.space()
	case !first:
		return false, d.fail("expected , or ] after array element")
	}
	return true, nil
}

// keyIs reports whether key names the field: encoding/json's exact match,
// then its fold match against upper, the field name's folded form.
func keyIs(key []byte, name, upper string) bool {
	if string(key) == name {
		return true
	}
	j := 0
	for i := 0; i < len(key); {
		c := key[i]
		if c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			i++
		} else {
			r, n := utf8.DecodeRune(key[i:])
			i += n
			r = foldRune(r)
			if r >= utf8.RuneSelf {
				return false
			}
			c = byte(r)
		}
		if j >= len(upper) || upper[j] != c {
			return false
		}
		j++
	}
	return j == len(upper)
}

// foldRune is the smallest rune of r's simple fold orbit, as encoding/json
// folds keys.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// unknown handles a member no field claims: refused when strict, skipped
// otherwise.
func (d *jsonIn) unknown(key []byte) error {
	if d.strict {
		return d.fail(fmt.Sprintf("unknown field %q", key))
	}
	return d.skip()
}

// typeError reports a value of the wrong JSON type for its field.
func (d *jsonIn) typeError() error {
	if d.i >= len(d.b) {
		return d.fail("unexpected end of JSON input")
	}
	return d.fail(fmt.Sprintf("cannot decode value starting with %q", d.b[d.i]))
}

// str decodes a string value into dst; null leaves dst alone. The value
// is copied out of the body unless it equals dst's current value, hint or
// alt, which are reused instead.
func (d *jsonIn) str(dst *string, hint, alt string) error {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		if d.literal("null") {
			return nil
		}
		return d.typeError()
	}
	raw, err := d.stringBytes()
	if err != nil {
		return err
	}
	switch {
	case string(raw) == *dst:
	case string(raw) == hint:
		*dst = hint
	case string(raw) == alt:
		*dst = alt
	default:
		*dst = string(raw)
	}
	return nil
}

// intField decodes an integer into dst; null leaves dst alone. As in
// encoding/json, a number with a fraction or exponent is refused.
func (d *jsonIn) intField(dst *int) error {
	if d.literal("null") {
		return nil
	}
	if d.i >= len(d.b) || (d.b[d.i] != '-' && !isDigit(d.b[d.i])) {
		return d.typeError()
	}
	start := d.i
	lit, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, 0)
	if err != nil {
		return &decodeError{offset: start, msg: fmt.Sprintf("cannot decode number %s into an int", lit)}
	}
	*dst = int(n)
	return nil
}

// boolField decodes a boolean into dst; null leaves dst alone.
func (d *jsonIn) boolField(dst *bool) error {
	switch {
	case d.literal("null"):
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		return d.typeError()
	}
	return nil
}

func (d *jsonIn) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// literal consumes lit if the body continues with it.
func (d *jsonIn) literal(lit string) bool {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes one JSON number and returns its literal.
func (d *jsonIn) number() ([]byte, error) {
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.b) && d.b[d.i] == '0':
		d.i++
	case d.i < len(d.b) && isDigit(d.b[d.i]):
		d.digits()
	default:
		return nil, d.fail("invalid number")
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if d.i >= len(d.b) || !isDigit(d.b[d.i]) {
			return nil, d.fail("invalid number")
		}
		d.digits()
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if d.i >= len(d.b) || !isDigit(d.b[d.i]) {
			return nil, d.fail("invalid number")
		}
		d.digits()
	}
	return d.b[start:d.i], nil
}

func (d *jsonIn) digits() {
	for d.i < len(d.b) && isDigit(d.b[d.i]) {
		d.i++
	}
}

// skip consumes one value of any type, checking its syntax.
func (d *jsonIn) skip() error {
	if d.i >= len(d.b) {
		return d.fail("unexpected end of JSON input")
	}
	switch c := d.b[d.i]; {
	case c == '"':
		_, err := d.stringBytes()
		return err
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		for n := 0; ; n++ {
			more, err := d.element(n == 0)
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	case d.literal("true"), d.literal("false"), d.literal("null"):
		return nil
	}
	return d.fail(fmt.Sprintf("invalid character %q looking for beginning of value", d.b[d.i]))
}

// stringBytes consumes the string at the cursor and returns its decoded
// bytes: a slice of the body when nothing needed rewriting, otherwise of
// the scratch buffer. Escapes and invalid UTF-8 decode as in encoding/json:
// a lone or mismatched surrogate escape and each invalid byte become
// U+FFFD.
func (d *jsonIn) stringBytes() ([]byte, error) {
	d.i++ // opening quote
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], nil
		case c == '\\' || c < 0x20:
			return d.stringSlow(start)
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && size == 1 {
				return d.stringSlow(start)
			}
			d.i += size
		}
	}
	return nil, d.fail("unexpected end of JSON input in string")
}

// stringSlow finishes a string that needs rewriting into scratch; the
// cursor is at the first byte needing it and start at the first byte of
// the string's content.
func (d *jsonIn) stringSlow(start int) ([]byte, error) {
	out := append(d.scratch[:0], d.b[start:d.i]...)
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			d.scratch = out
			return out, nil
		case c < 0x20:
			return nil, d.fail("invalid control character in string")
		case c == '\\':
			if d.i+1 >= len(d.b) {
				return nil, d.fail("unexpected end of JSON input in string escape")
			}
			switch e := d.b[d.i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(d.b[d.i+2:])
				if r < 0 {
					return nil, d.fail("invalid \\u escape")
				}
				d.i += 6
				if utf16.IsSurrogate(r) {
					if r2 := hex4Escape(d.b[d.i:]); r2 >= 0 {
						if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
							out = utf8.AppendRune(out, dec)
							d.i += 6
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				return nil, d.fail("invalid escape in string")
			}
			d.i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && size == 1 {
				out = utf8.AppendRune(out, unicode.ReplacementChar)
			} else {
				out = append(out, d.b[d.i:d.i+size]...)
			}
			d.i += size
		}
	}
	d.scratch = out
	return nil, d.fail("unexpected end of JSON input in string")
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// hex4Escape decodes a \uXXXX escape at the start of b, or returns -1.
func hex4Escape(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	return hex4(b[2:])
}
