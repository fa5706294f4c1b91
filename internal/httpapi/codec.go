package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"sync"
	"unicode/utf8"
)

// The read-path codec. A check is the API's hot route, so the three types
// it carries — Decision, CheckBatchRequest and CheckBatchResponse — are
// appended and scanned here instead of reflected over by encoding/json.
// The contract is equivalence with encoding/json: an Append function writes
// exactly json.Marshal's bytes, and a Decode function returns the value
// json.Unmarshal decodes into a zero value and fails exactly when it does
// (for the request, DecodeStrict stands in for json.Unmarshal). The
// decoders' fast path reads the shape the encoders write, in any key order,
// with any whitespace and escape; whatever else it meets it hands to
// encoding/json. FuzzWireCodec pins both directions.

// AppendDecision appends d's JSON to dst.
func AppendDecision(dst []byte, d Decision) []byte {
	dst = appendString(append(dst, `{"resource":`...), d.Resource)
	dst = appendString(append(dst, `,"requester":`...), d.Requester)
	dst = appendString(append(dst, `,"effect":`...), d.Effect)
	if d.Rule != "" {
		dst = appendString(append(dst, `,"rule":`...), d.Rule)
	}
	if d.Reason != "" {
		dst = appendString(append(dst, `,"reason":`...), d.Reason)
	}
	return append(dst, '}')
}

// AppendCheckBatchRequest appends req's JSON to dst.
func AppendCheckBatchRequest(dst []byte, req CheckBatchRequest) []byte {
	dst = appendString(append(dst, `{"resource":`...), req.Resource)
	dst = append(dst, `,"requesters":`...)
	if req.Requesters == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i, name := range req.Requesters {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, name)
	}
	return append(dst, "]}"...)
}

// AppendCheckBatchResponse appends resp's JSON to dst.
func AppendCheckBatchResponse(dst []byte, resp CheckBatchResponse) []byte {
	dst = append(dst, `{"decisions":`...)
	if resp.Decisions == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i, d := range resp.Decisions {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendDecision(dst, d)
	}
	return append(dst, "]}"...)
}

// appendString appends s as a JSON string. Printable ASCII is copied, with
// '"' and '\' escaped; a string with anything else in it — a control
// character, one of the <, > and & json.Marshal escapes for HTML, any
// non-ASCII byte — is json.Marshal's, so its escapes and its handling of
// invalid UTF-8 are json.Marshal's too.
func appendString(dst []byte, s string) []byte {
	n := len(dst)
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case copied[c]:
		case c == '"' || c == '\\':
			dst = append(append(dst, s[start:i]...), '\\', c)
			start = i + 1
		default:
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst[:n], b...)
		}
	}
	return append(append(dst, s[start:]...), '"')
}

// copied marks the bytes appendString copies as they are.
var copied = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// DecodeDecision decodes one Decision, as json.Unmarshal would.
func DecodeDecision(data []byte) (Decision, error) {
	s := scanner{data: data}
	if d := s.decision(); s.end() {
		return d, nil
	}
	var d Decision
	err := json.Unmarshal(data, &d)
	return d, err
}

// DecodeCheckBatchResponse decodes one CheckBatchResponse, as json.Unmarshal
// would.
func DecodeCheckBatchResponse(data []byte) (CheckBatchResponse, error) {
	s := scanner{data: data}
	if resp := s.checkBatchResponse(); s.end() {
		return resp, nil
	}
	var resp CheckBatchResponse
	err := json.Unmarshal(data, &resp)
	return resp, err
}

// DecodeCheckBatchRequest decodes one CheckBatchRequest under DecodeStrict's
// rules.
func DecodeCheckBatchRequest(data []byte) (CheckBatchRequest, error) {
	s := scanner{data: data}
	if req := s.checkBatchRequest(); s.end() {
		return req, nil
	}
	var req CheckBatchRequest
	err := DecodeStrict(data, &req)
	return req, err
}

// errTrailingData rejects a body with more than one JSON value in it.
var errTrailingData = errors.New("unexpected data after the JSON value")

// DecodeStrict decodes the one JSON value data holds into v, the way every
// request body is read: an unknown field is an error, and so is anything
// but whitespace after the value.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return errTrailingData
	}
	return nil
}

// scanner reads the JSON the Append functions write: objects of the known
// keys, arrays of them or of strings, and strings with any escape. It gives
// up (bad) on anything else — an unknown, case-folded, escaped or repeated
// key, a null, a surrogate escape, invalid UTF-8, a syntax error — and
// leaves that input to encoding/json, so it never has to match
// encoding/json's handling of it.
type scanner struct {
	data []byte
	pos  int
	bad  bool
}

func (s *scanner) skipSpace() {
	i, data := s.pos, s.data
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\r' || data[i] == '\n') {
		i++
	}
	s.pos = i
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *scanner) consume(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// end reports whether the scan succeeded with only whitespace left.
func (s *scanner) end() bool {
	s.skipSpace()
	return !s.bad && s.pos == len(s.data)
}

// raw reads one string and returns the bytes between its quotes; plain
// reports that they are printable ASCII without escapes, and so are the
// string itself.
func (s *scanner) raw() (b []byte, plain bool) {
	if !s.consume('"') {
		s.bad = true
		return nil, false
	}
	data := s.data[s.pos:]
	plain = true
	for i := 0; i < len(data); i++ {
		switch c := data[i]; {
		case !special[c]:
		case c == '"':
			s.pos += i + 1
			return data[:i], plain
		case c == '\\':
			plain = false
			i++ // an escaped quote does not end the string
		default:
			plain = false
		}
	}
	s.bad = true
	return nil, false
}

// special marks the bytes that end a run of plain string bytes: the quote,
// the backslash, control characters and non-ASCII.
var special = func() (t [256]bool) {
	for c := range t {
		t[c] = c == '"' || c == '\\' || c < 0x20 || c >= utf8.RuneSelf
	}
	return t
}()

// str reads one string value.
func (s *scanner) str() string {
	b, plain := s.raw()
	if plain {
		return string(b)
	}
	return s.unescape(b)
}

// unescape returns the string the raw bytes of a JSON string stand for.
// It is never longer than they are, so it costs one allocation.
func (s *scanner) unescape(raw []byte) string {
	var out strings.Builder
	out.Grow(len(raw))
	for {
		n := 0
		for n < len(raw) && !special[raw[n]] {
			n++
		}
		out.Write(raw[:n])
		if raw = raw[n:]; len(raw) == 0 {
			return out.String()
		}
		switch c := raw[0]; {
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(raw)
			if r == utf8.RuneError && n == 1 {
				s.bad = true
				return ""
			}
			out.Write(raw[:n])
			raw = raw[n:]
		case c == '\\': // raw ends in none that is unpaired
			e := raw[1]
			raw = raw[2:]
			switch e {
			case '"', '\\', '/':
				out.WriteByte(e)
			case 'b':
				out.WriteByte('\b')
			case 'f':
				out.WriteByte('\f')
			case 'n':
				out.WriteByte('\n')
			case 'r':
				out.WriteByte('\r')
			case 't':
				out.WriteByte('\t')
			case 'u':
				r := hex4(raw)
				if r < 0 || 0xd800 <= r && r < 0xe000 {
					s.bad = true // a surrogate, half of a pair or alone
					return ""
				}
				out.WriteRune(r)
				raw = raw[4:]
			default:
				s.bad = true
				return ""
			}
		default: // a control character
			s.bad = true
			return ""
		}
	}
}

// hex4 reads the four hex digits of a \u escape, -1 if they are not there.
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
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// fields reads an object, calling field with each key to read its value.
// field returns the key's bit in the seen mask, 0 for a key it does not
// know.
func (s *scanner) fields(field func(key []byte) uint8) {
	if !s.consume('{') {
		s.bad = true
		return
	}
	if s.consume('}') {
		return
	}
	var seen uint8
	for !s.bad {
		key, plain := s.raw()
		if !plain || !s.consume(':') {
			s.bad = true
			return
		}
		bit := field(key)
		if bit == 0 || seen&bit != 0 {
			s.bad = true
			return
		}
		seen |= bit
		if s.consume('}') {
			return
		}
		if !s.consume(',') {
			s.bad = true
		}
	}
}

// elements reads an array, calling elem to read each element.
func (s *scanner) elements(elem func()) {
	if !s.consume('[') {
		s.bad = true
		return
	}
	if s.consume(']') {
		return
	}
	for !s.bad {
		elem()
		if s.consume(']') {
			return
		}
		if !s.consume(',') {
			s.bad = true
		}
	}
}

func (s *scanner) decision() (d Decision) {
	s.fields(func(key []byte) uint8 {
		switch string(key) {
		case "resource":
			d.Resource = s.str()
			return 1
		case "requester":
			d.Requester = s.str()
			return 2
		case "effect":
			d.Effect = s.effect()
			return 4
		case "rule":
			d.Rule = s.str()
			return 8
		case "reason":
			d.Reason = s.str()
			return 16
		}
		return 0
	})
	return d
}

// effect reads one string value without copying the two effects there
// are.
func (s *scanner) effect() string {
	switch b, plain := s.raw(); {
	case !plain:
		return s.unescape(b)
	case string(b) == "allow":
		return "allow"
	case string(b) == "deny":
		return "deny"
	default:
		return string(b)
	}
}

func (s *scanner) checkBatchRequest() (req CheckBatchRequest) {
	s.fields(func(key []byte) uint8 {
		switch string(key) {
		case "resource":
			req.Resource = s.str()
			return 1
		case "requesters":
			var stack [32]string // collects without regrowing; one copy out
			names := stack[:0]
			s.elements(func() { names = append(names, s.str()) })
			req.Requesters = append([]string{}, names...)
			return 2
		}
		return 0
	})
	return req
}

func (s *scanner) checkBatchResponse() (resp CheckBatchResponse) {
	s.fields(func(key []byte) uint8 {
		if string(key) != "decisions" {
			return 0
		}
		var stack [16]Decision // collects without regrowing; one copy out
		ds := stack[:0]
		s.elements(func() { ds = append(ds, s.decision()) })
		resp.Decisions = append([]Decision{}, ds...)
		return 1
	})
	return resp
}

// maxPooledBuffer bounds the buffers GetBuffer hands out again: one
// outsized body must not pin its memory for the life of the process.
const maxPooledBuffer = 64 << 10

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuffer returns an empty buffer from the pool the read path encodes
// into and reads bodies into.
func GetBuffer() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuffer returns b to the pool once nothing reads its bytes any more.
func PutBuffer(b *[]byte) {
	if cap(*b) > maxPooledBuffer {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// ReadAll appends everything r yields to dst.
func ReadAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, make([]byte, 512)...)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
