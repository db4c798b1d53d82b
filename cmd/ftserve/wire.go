package main

// This file is the /v1/route wire codec: a hand-written decoder for request
// bodies and an appending encoder for responses. Both work in caller-owned,
// pooled buffers, so a warmed request path allocates neither. They stand in
// for encoding/json and follow its rules exactly for the structs they
// replace: FuzzRouteWire holds the decoder to json.Unmarshal (accept/reject
// and every decoded field) and FuzzRouteRespEncode holds the encoder to
// json.Encoder, byte for byte.

import (
	"bytes"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"fattree/internal/obsv"
)

// maxWireDepth is encoding/json's nesting limit: a body that opens more than
// this many objects and arrays at once is rejected.
const maxWireDepth = 10000

// routeWire is a decoded /v1/route request body: a named workload or an
// explicit message list, never both. decode fills it as json.Unmarshal fills
//
//	struct {
//		Tenant   string    `json:"tenant"`
//		Workload string    `json:"workload,omitempty"`
//		K        int       `json:"k,omitempty"`
//		Seed     int64     `json:"seed,omitempty"`
//		Messages []wireMsg `json:"messages,omitempty"`
//	}
//
// a zero value: keys match case-insensitively, unknown keys are skipped,
// null leaves a field as it is (a list becomes empty), and a key given twice
// decodes into what the first left (json.Unmarshal reuses the list's
// elements). tenant and workload point into the body or into scratch and are
// valid until the next decode.
type routeWire struct {
	tenant, workload []byte
	k                int
	seed             int64
	messages         []wireMsg

	data    []byte // the body being decoded
	pos     int    // next byte of data
	depth   int    // open objects and arrays
	scratch []byte // unescaped string values
	keyBuf  []byte // the current unescaped key
	exposed int    // messages elements exposed since the list was last reset
	cur     int    // the messages element being decoded
}

// wireMsg is one explicit message of a route request.
type wireMsg struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// wireError is a decode failure at a byte offset of the body.
type wireError struct {
	msg string
	off int
}

func (e *wireError) Error() string { return e.msg + " at offset " + strconv.Itoa(e.off) }

func (w *routeWire) fail(msg string) error { return &wireError{msg, w.pos} }

// decode parses data into w, reusing w's buffers.
func (w *routeWire) decode(data []byte) error {
	*w = routeWire{
		messages: w.messages[:0], scratch: w.scratch[:0], keyBuf: w.keyBuf[:0],
		data: data,
	}
	w.skipSpace()
	switch w.peek() {
	case '{':
		if err := w.object((*routeWire).routeField); err != nil {
			return err
		}
	case 'n':
		if err := w.literal("null"); err != nil {
			return err
		}
	default:
		// Anything else is either invalid or a value of the wrong type.
		return w.fail("request body is not a JSON object")
	}
	w.skipSpace()
	if w.pos < len(w.data) {
		return w.fail("unexpected data after the top-level value")
	}
	return nil
}

func (w *routeWire) peek() byte {
	if w.pos < len(w.data) {
		return w.data[w.pos]
	}
	return 0
}

func (w *routeWire) skipSpace() {
	for w.pos < len(w.data) {
		switch w.data[w.pos] {
		case ' ', '\t', '\n', '\r':
			w.pos++
		default:
			return
		}
	}
}

// literal consumes the keyword lit (true, false or null).
func (w *routeWire) literal(lit string) error {
	if !bytes.HasPrefix(w.data[w.pos:], []byte(lit)) {
		return w.fail("invalid literal")
	}
	w.pos += len(lit)
	return nil
}

// open enters an object or array, enforcing the nesting limit.
func (w *routeWire) open() error {
	w.pos++
	if w.depth++; w.depth > maxWireDepth {
		return w.fail("exceeded max nesting depth")
	}
	w.skipSpace()
	return nil
}

// object parses the object at w.pos, handing each key to field with w.pos
// at the key's value; field consumes the value.
func (w *routeWire) object(field func(*routeWire, []byte) error) error {
	if err := w.open(); err != nil {
		return err
	}
	if w.peek() == '}' {
		w.pos++
		w.depth--
		return nil
	}
	for {
		if w.peek() != '"' {
			return w.fail("expected a string key")
		}
		raw, plain, err := w.scanString()
		if err != nil {
			return err
		}
		key := raw
		if !plain {
			w.keyBuf = appendUnquoted(w.keyBuf[:0], raw)
			key = w.keyBuf
		}
		w.skipSpace()
		if w.peek() != ':' {
			return w.fail("expected ':' after an object key")
		}
		w.pos++
		w.skipSpace()
		if err := field(w, key); err != nil {
			return err
		}
		w.skipSpace()
		switch w.peek() {
		case ',':
			w.pos++
			w.skipSpace()
		case '}':
			w.pos++
			w.depth--
			return nil
		default:
			return w.fail("expected ',' or '}' in an object")
		}
	}
}

// routeField decodes one key of the request object.
func (w *routeWire) routeField(key []byte) error {
	switch {
	case bytes.EqualFold(key, []byte("tenant")):
		return w.stringValue(&w.tenant)
	case bytes.EqualFold(key, []byte("workload")):
		return w.stringValue(&w.workload)
	case bytes.EqualFold(key, []byte("k")):
		return w.intValue(&w.k)
	case bytes.EqualFold(key, []byte("seed")):
		if w.peek() == 'n' {
			return w.literal("null")
		}
		v, err := w.integer(64)
		w.seed = v
		return err
	case bytes.EqualFold(key, []byte("messages")):
		switch w.peek() {
		case 'n':
			w.messages, w.exposed = w.messages[:0], 0
			return w.literal("null")
		case '[':
			n, err := w.list((*routeWire).message)
			if n == 0 {
				w.exposed = 0 // json.Unmarshal makes an empty list a fresh slice
			}
			w.messages = w.messages[:n]
			return err
		}
		return w.fail("messages must be a list")
	}
	return w.skipValue()
}

// messageField decodes one key of a message object.
func (w *routeWire) messageField(key []byte) error {
	switch {
	case bytes.EqualFold(key, []byte("src")):
		return w.intValue(&w.messages[w.cur].Src)
	case bytes.EqualFold(key, []byte("dst")):
		return w.intValue(&w.messages[w.cur].Dst)
	}
	return w.skipValue()
}

// skipField consumes the value of a key nobody decodes.
func (w *routeWire) skipField([]byte) error { return w.skipValue() }

// skipElement consumes a list element nobody decodes.
func (w *routeWire) skipElement(int) error { return w.skipValue() }

// list parses the array at w.pos, handing each element's index to elem with
// w.pos at the element; elem consumes it. It returns the element count.
func (w *routeWire) list(elem func(*routeWire, int) error) (int, error) {
	if err := w.open(); err != nil {
		return 0, err
	}
	if w.peek() == ']' {
		w.pos++
		w.depth--
		return 0, nil
	}
	for n := 0; ; {
		if err := elem(w, n); err != nil {
			return n, err
		}
		n++
		w.skipSpace()
		switch w.peek() {
		case ',':
			w.pos++
			w.skipSpace()
		case ']':
			w.pos++
			w.depth--
			return n, nil
		default:
			return n, w.fail("expected ',' or ']' in a list")
		}
	}
}

// message decodes element i of the messages list into w.messages the way
// json.Unmarshal decodes into an existing slice: it reuses whatever an
// earlier messages key left at i, and an element exposed for the first time
// since the list was last emptied starts zero.
func (w *routeWire) message(i int) error {
	if i >= len(w.messages) {
		if i < cap(w.messages) {
			w.messages = w.messages[:i+1]
			if i >= w.exposed {
				w.messages[i] = wireMsg{} // pooled storage from an earlier body
			}
		} else {
			w.messages = append(w.messages, wireMsg{})
		}
		w.exposed = max(w.exposed, i+1)
	}
	switch w.peek() {
	case 'n':
		return w.literal("null")
	case '{':
		w.cur = i
		return w.object((*routeWire).messageField)
	}
	return w.fail("messages must hold objects")
}

// stringValue decodes a string (or null, which keeps *dst) into *dst.
func (w *routeWire) stringValue(dst *[]byte) error {
	switch w.peek() {
	case 'n':
		return w.literal("null")
	case '"':
		raw, plain, err := w.scanString()
		if err != nil {
			return err
		}
		if plain {
			*dst = raw
			return nil
		}
		start := len(w.scratch)
		w.scratch = appendUnquoted(w.scratch, raw)
		*dst = w.scratch[start:len(w.scratch):len(w.scratch)]
		return nil
	}
	return w.fail("expected a string")
}

// intValue decodes an int (or null, which keeps *dst) into *dst.
func (w *routeWire) intValue(dst *int) error {
	if w.peek() == 'n' {
		return w.literal("null")
	}
	v, err := w.integer(strconv.IntSize)
	*dst = int(v)
	return err
}

// integer decodes a number that must be an integer of the given bit size:
// json.Unmarshal rejects a fraction, an exponent or an overflow in an
// integer field.
func (w *routeWire) integer(bitSize int) (int64, error) {
	lit, integral, err := w.number()
	if err != nil {
		return 0, err
	}
	if !integral {
		return 0, w.fail("expected an integer")
	}
	v, err := strconv.ParseInt(string(lit), 10, bitSize)
	if err != nil {
		return 0, w.fail("integer out of range")
	}
	return v, nil
}

// number scans the JSON number at w.pos. integral reports that it has
// neither a fraction nor an exponent.
func (w *routeWire) number() (lit []byte, integral bool, err error) {
	start := w.pos
	if w.peek() == '-' {
		w.pos++
	}
	switch c := w.peek(); {
	case c == '0':
		w.pos++
	case '1' <= c && c <= '9':
		w.digits()
	default:
		return nil, false, w.fail("invalid number")
	}
	integral = true
	if w.peek() == '.' {
		integral = false
		w.pos++
		if !w.digits() {
			return nil, false, w.fail("invalid number")
		}
	}
	if c := w.peek(); c == 'e' || c == 'E' {
		integral = false
		w.pos++
		if c := w.peek(); c == '+' || c == '-' {
			w.pos++
		}
		if !w.digits() {
			return nil, false, w.fail("invalid number")
		}
	}
	return w.data[start:w.pos], integral, nil
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (w *routeWire) digits() bool {
	start := w.pos
	for c := w.peek(); '0' <= c && c <= '9'; c = w.peek() {
		w.pos++
	}
	return w.pos > start
}

// scanString validates the string at w.pos and returns its raw contents.
// plain reports that they hold no escape and no invalid UTF-8, so they are
// already the decoded value.
func (w *routeWire) scanString() (raw []byte, plain bool, err error) {
	start := w.pos + 1
	plain = true
	for i := start; i < len(w.data); {
		switch c := w.data[i]; {
		case c == '"':
			w.pos = i + 1
			return w.data[start:i], plain, nil
		case c == '\\':
			plain = false
			if i+1 == len(w.data) {
				i++ // a trailing backslash: unterminated
				continue
			}
			switch w.data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if getu4(w.data[i:]) < 0 {
					w.pos = i
					return nil, false, w.fail("invalid \\u escape")
				}
				i += 6
			default:
				w.pos = i
				return nil, false, w.fail("invalid escape")
			}
		case c < ' ':
			w.pos = i
			return nil, false, w.fail("control character in a string")
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(w.data[i:])
			if r == utf8.RuneError && size == 1 {
				plain = false
			}
			i += size
		}
	}
	w.pos = len(w.data)
	return nil, false, w.fail("unterminated string")
}

// skipValue validates and consumes any JSON value.
func (w *routeWire) skipValue() error {
	switch c := w.peek(); {
	case c == '{':
		return w.object((*routeWire).skipField)
	case c == '[':
		_, err := w.list((*routeWire).skipElement)
		return err
	case c == '"':
		_, _, err := w.scanString()
		return err
	case c == 't':
		return w.literal("true")
	case c == 'f':
		return w.literal("false")
	case c == 'n':
		return w.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := w.number()
		return err
	}
	return w.fail("invalid value")
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// appendUnquoted appends the decoded value of raw, a validated string body,
// as json.Unmarshal decodes it: escapes resolved, a surrogate pair joined, a
// lone surrogate or an invalid UTF-8 byte replaced by U+FFFD.
func appendUnquoted(dst, raw []byte) []byte {
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\':
			switch raw[r+1] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := getu4(raw[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(raw[r:])); dec != unicode.ReplacementChar {
						dst = utf8.AppendRune(dst, dec)
						r += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, raw[r+1])
			}
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// traceID is a request's trace ID: 16 lowercase hex digits on the wire
// (obsv.AppendTraceID), omitted when zero.
type traceID uint64

// MarshalText gives encoding/json the wire form, so routeResp's tags
// document the response exactly.
func (t traceID) MarshalText() ([]byte, error) { return obsv.AppendTraceID(nil, uint64(t)), nil }

// UnmarshalText parses the wire form.
func (t *traceID) UnmarshalText(b []byte) error {
	v, err := strconv.ParseUint(string(b), 16, 64)
	*t = traceID(v)
	return err
}

// appendRouteResp appends resp as json.Encoder writes it: the tagged fields
// in order, zero ones omitted, strings HTML-escaped, then a newline.
func appendRouteResp(dst []byte, resp *routeResp) []byte {
	dst = append(dst, '{')
	if resp.TraceID != 0 {
		dst = append(appendKey(dst, "trace_id"), '"')
		dst = append(obsv.AppendTraceID(dst, uint64(resp.TraceID)), '"')
	}
	if resp.Tenant != "" {
		dst = appendString(appendKey(dst, "tenant"), resp.Tenant)
	}
	dst = appendInt(dst, "messages", int64(resp.Messages))
	dst = appendInt(dst, "delivered", int64(resp.Delivered))
	dst = appendInt(dst, "cycles", int64(resp.Cycles))
	dst = appendInt(dst, "drops", int64(resp.Drops))
	dst = appendInt(dst, "deferrals", int64(resp.Deferrals))
	dst = appendInt(dst, "queue_wait_us", resp.QueueWaitUS)
	dst = appendInt(dst, "duration_us", resp.DurationUS)
	if resp.Error != "" {
		dst = appendString(appendKey(dst, "error"), resp.Error)
	}
	dst = appendInt(dst, "retry_after_s", int64(resp.RetryAfterS))
	return append(dst, '}', '\n')
}

// appendKey appends `"key":`, after a comma unless it opens the object.
func appendKey(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	dst = append(append(append(dst, '"'), key...), '"', ':')
	return dst
}

// appendInt appends a nonzero integer field (omitempty).
func appendInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(appendKey(dst, key), v, 10)
}

// appendString appends s as a JSON string the way encoding/json does with
// HTML escaping on: <, > and & as \u escapes, control characters escaped,
// invalid UTF-8 bytes as \ufffd, and U+2028 and U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
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
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(append(dst, s[start:]...), '"')
}
