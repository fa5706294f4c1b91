// Package codec is the hand-written JSON kernel behind the repository's two
// codecs: the read-path wire codec (internal/httpapi) and the durability
// codec (WAL record groups in internal/wal, graph files in internal/graph,
// policy files in internal/core). Each of those appends its types with the
// Append functions here and scans them with a Scanner, instead of
// reflecting over them with encoding/json.
//
// The contract every codec built on it keeps is equivalence with
// encoding/json. An encoder writes exactly the bytes json.Marshal (or
// json.Encoder, which adds a newline) writes for the same value. A decoder
// returns the value json.Unmarshal (or json.Decoder.Decode) decodes into a
// zero value and fails exactly when it does: its fast path reads the shape
// the encoders write, in any key order, with any whitespace and escape, and
// whatever else it meets — an unknown, case-folded, escaped or repeated key,
// a null, a number out of its field's range, a surrogate escape, invalid
// UTF-8, a syntax error — it hands to encoding/json, so it never has to
// match encoding/json's handling of it.
package codec

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// AppendString appends s as a JSON string. Printable ASCII is copied, with
// '"' and '\' escaped; a string with anything else in it — a control
// character, one of the <, > and & json.Marshal escapes for HTML, any
// non-ASCII byte — is json.Marshal's, so its escapes and its handling of
// invalid UTF-8 are json.Marshal's too.
func AppendString(dst []byte, s string) []byte {
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
			// A string always marshals. Marshal gets a copy, so that s,
			// and whatever holds it, does not escape on the copied path.
			b, _ := json.Marshal(strings.Clone(s))
			return append(dst[:n], b...)
		}
	}
	return append(append(dst, s[start:]...), '"')
}

// copied marks the bytes AppendString copies as they are.
var copied = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendFloat appends f in encoding/json's float64 format: the shortest
// decimal that round-trips, in exponent form only below 1e-6 or from 1e21
// up, with a one-digit negative exponent unpadded. NaN and the infinities
// have no JSON form; they fail as json.Marshal fails on them.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 is written e-7
		dst = dst[:n-1]
	}
	return dst, nil
}

// AppendBytes appends b as json.Marshal writes a []byte: a base64 string.
func AppendBytes(dst, b []byte) []byte {
	return append(base64.StdEncoding.AppendEncode(append(dst, '"'), b), '"')
}

// Scanner reads JSON values one token at a time for a hand-written
// decoder. It gives up on anything outside the fast path the package doc
// describes — End then reports false — and the decoder hands its whole
// input to encoding/json.
type Scanner struct {
	data []byte
	pos  int
	bad  bool
}

// NewScanner returns a Scanner over data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// Fail marks the scan as given up.
func (s *Scanner) Fail() { s.bad = true }

func (s *Scanner) skipSpace() {
	i, data := s.pos, s.data
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\r' || data[i] == '\n') {
		i++
	}
	s.pos = i
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *Scanner) consume(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// End reports whether the scan succeeded with only whitespace left.
func (s *Scanner) End() bool {
	s.skipSpace()
	return !s.bad && s.pos == len(s.data)
}

// Raw reads one string and returns the bytes between its quotes; plain
// reports that they are printable ASCII without escapes, and so are the
// string itself.
func (s *Scanner) Raw() (b []byte, plain bool) {
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

// Str reads one string value.
func (s *Scanner) Str() string {
	b, plain := s.Raw()
	if plain {
		return string(b)
	}
	return s.Unescape(b)
}

// Unescape returns the string the raw bytes of a JSON string stand for.
// It is never longer than they are, so it costs one allocation.
func (s *Scanner) Unescape(raw []byte) string {
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

// Bytes reads one string value as json.Unmarshal reads a []byte: base64,
// decoded into a fresh non-nil slice.
func (s *Scanner) Bytes() []byte {
	b, plain := s.Raw()
	if !plain {
		s.bad = true
		return nil
	}
	out := make([]byte, base64.StdEncoding.DecodedLen(len(b)))
	n, err := base64.StdEncoding.Decode(out, b)
	if err != nil {
		s.bad = true
	}
	return out[:n]
}

// Bool reads one true or false.
func (s *Scanner) Bool() bool {
	s.skipSpace()
	switch rest := s.data[s.pos:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.pos += 4
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		s.pos += 5
		return false
	}
	s.bad = true
	return false
}

// number reads one JSON number and returns its bytes.
func (s *Scanner) number() []byte {
	s.skipSpace()
	data, i := s.data, s.pos
	digits := func() {
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		digits()
	default:
		s.bad = true
		return nil
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i == len(data) || data[i] < '0' || data[i] > '9' {
			s.bad = true
			return nil
		}
		digits()
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i == len(data) || data[i] < '0' || data[i] > '9' {
			s.bad = true
			return nil
		}
		digits()
	}
	b := data[s.pos:i]
	s.pos = i
	return b
}

// Uint reads one number into an unsigned integer of the given bit size; a
// fraction, an exponent, a sign or a value the size cannot hold gives up,
// as encoding/json refuses them.
func (s *Scanner) Uint(bits int) uint64 {
	return s.digits(s.number(), uint64(1)<<bits-1)
}

// Int reads one number into a signed integer of the given bit size, under
// Uint's rules apart from the sign.
func (s *Scanner) Int(bits int) int64 {
	b := s.number()
	max := uint64(1)<<(bits-1) - 1
	if len(b) > 0 && b[0] == '-' {
		return -int64(s.digits(b[1:], max+1))
	}
	return int64(s.digits(b, max))
}

// digits parses a run of decimal digits no greater than max.
func (s *Scanner) digits(b []byte, max uint64) uint64 {
	var n uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || n > (max-d)/10 {
			s.bad = true
			return 0
		}
		n = n*10 + d
	}
	return n
}

// Float reads one number into a float64, parsed as encoding/json parses it.
func (s *Scanner) Float() float64 {
	b := s.number()
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		s.bad = true
	}
	return f
}

// Object reads an object into a struct, calling field with each key to
// read its value. field returns the key's bit in the seen mask, 0 for a key
// it does not know; a key seen twice gives up.
func (s *Scanner) Object(field func(key []byte) uint32) {
	if !s.consume('{') {
		s.bad = true
		return
	}
	if s.consume('}') {
		return
	}
	var seen uint32
	for !s.bad {
		key, plain := s.Raw()
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

// Map reads an object into a map, calling entry with each key, unescaped,
// to read its value. As in encoding/json, a repeated key's last value wins.
func (s *Scanner) Map(entry func(key string)) {
	if !s.consume('{') {
		s.bad = true
		return
	}
	if s.consume('}') {
		return
	}
	for !s.bad {
		key := s.Str()
		if s.bad || !s.consume(':') {
			s.bad = true
			return
		}
		entry(key)
		if s.consume('}') {
			return
		}
		if !s.consume(',') {
			s.bad = true
		}
	}
}

// Array reads an array, calling elem to read each element.
func (s *Scanner) Array(elem func()) {
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

// Strings reads an array of strings into a fresh non-nil slice.
func (s *Scanner) Strings() []string {
	var stack [32]string // collects without regrowing; one copy out
	out := stack[:0]
	s.Array(func() { out = append(out, s.Str()) })
	return append([]string{}, out...)
}

// Lines reads a stream of JSON values one per line, as successive
// json.Decoder.Decode calls read it: each line is scanned on its own, and
// from the first line the fast path cannot read — a value spanning lines,
// two on one line, anything the package doc lists — the rest of the stream
// goes to a json.Decoder.
type Lines struct {
	br *bufio.Reader
	// s is the scanner every line is read with; a field, so that handing
	// it to scan does not move one to the heap per line.
	s Scanner
	// long collects a line longer than br's buffer.
	long []byte
	// dec reads the rest of the stream once the fast path gave up.
	dec *json.Decoder
}

// NewLines returns a Lines reading r.
func NewLines(r io.Reader) *Lines {
	return &Lines{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next decodes the next value of the stream: scan reads it from its line,
// or, once the stream has left the fast path, encoding/json decodes it into
// a zero T.
func Next[T any](l *Lines, scan func(*Scanner) T) (T, error) {
	if l.dec == nil {
		line, err := l.line()
		if err != nil && err != io.EOF {
			var zero T
			return zero, err
		}
		l.s = Scanner{data: line}
		if v := scan(&l.s); l.s.End() {
			return v, nil
		}
		rest := append([]byte(nil), line...) // line is the reader's buffer
		l.dec = json.NewDecoder(io.MultiReader(bytes.NewReader(rest), l.br))
	}
	var v T
	err := l.dec.Decode(&v)
	return v, err
}

// errTrailing is End's error for a stream with more than whitespace left.
var errTrailing = errors.New("codec: data after the last value")

// End returns nil if nothing but whitespace is left of the stream, and an
// error if anything else is, or reading the rest fails.
func (l *Lines) End() error {
	if l.dec != nil {
		var v json.RawMessage
		switch err := l.dec.Decode(&v); err {
		case io.EOF:
			return nil
		case nil:
			return errTrailing
		default:
			return err
		}
	}
	for {
		b, err := l.br.ReadByte()
		switch {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		case b != ' ' && b != '\t' && b != '\r' && b != '\n':
			return errTrailing
		}
	}
}

// line reads through the next newline, or to the end of the stream.
func (l *Lines) line() ([]byte, error) {
	line, err := l.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	l.long = append(l.long[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = l.br.ReadSlice('\n')
		l.long = append(l.long, line...)
	}
	return l.long, err
}
