package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"sync"

	"reachac/internal/codec"
)

// The read-path codec. A check is the API's hot route, so the three types
// it carries — Decision, CheckBatchRequest and CheckBatchResponse — are
// appended and scanned on the internal/codec kernel instead of reflected
// over by encoding/json, under the kernel's equivalence contract (for the
// request, DecodeStrict stands in for json.Unmarshal). FuzzWireCodec pins
// both directions.

// AppendDecision appends d's JSON to dst.
func AppendDecision(dst []byte, d Decision) []byte {
	dst = codec.AppendString(append(dst, `{"resource":`...), d.Resource)
	dst = codec.AppendString(append(dst, `,"requester":`...), d.Requester)
	dst = codec.AppendString(append(dst, `,"effect":`...), d.Effect)
	if d.Rule != "" {
		dst = codec.AppendString(append(dst, `,"rule":`...), d.Rule)
	}
	if d.Reason != "" {
		dst = codec.AppendString(append(dst, `,"reason":`...), d.Reason)
	}
	return append(dst, '}')
}

// AppendCheckBatchRequest appends req's JSON to dst.
func AppendCheckBatchRequest(dst []byte, req CheckBatchRequest) []byte {
	dst = codec.AppendString(append(dst, `{"resource":`...), req.Resource)
	dst = append(dst, `,"requesters":`...)
	if req.Requesters == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i, name := range req.Requesters {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = codec.AppendString(dst, name)
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

// DecodeDecision decodes one Decision, as json.Unmarshal would.
func DecodeDecision(data []byte) (Decision, error) {
	s := codec.NewScanner(data)
	if d := scanDecision(&s); s.End() {
		return d, nil
	}
	var d Decision
	err := json.Unmarshal(data, &d)
	return d, err
}

// DecodeCheckBatchResponse decodes one CheckBatchResponse, as json.Unmarshal
// would.
func DecodeCheckBatchResponse(data []byte) (CheckBatchResponse, error) {
	s := codec.NewScanner(data)
	if resp := scanCheckBatchResponse(&s); s.End() {
		return resp, nil
	}
	var resp CheckBatchResponse
	err := json.Unmarshal(data, &resp)
	return resp, err
}

// DecodeCheckBatchRequest decodes one CheckBatchRequest under DecodeStrict's
// rules.
func DecodeCheckBatchRequest(data []byte) (CheckBatchRequest, error) {
	s := codec.NewScanner(data)
	if req := scanCheckBatchRequest(&s); s.End() {
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

func scanDecision(s *codec.Scanner) (d Decision) {
	s.Object(func(key []byte) uint32 {
		switch string(key) {
		case "resource":
			d.Resource = s.Str()
			return 1
		case "requester":
			d.Requester = s.Str()
			return 2
		case "effect":
			d.Effect = scanEffect(s)
			return 4
		case "rule":
			d.Rule = s.Str()
			return 8
		case "reason":
			d.Reason = s.Str()
			return 16
		}
		return 0
	})
	return d
}

// effect reads one string value without copying the two effects there
// are.
func scanEffect(s *codec.Scanner) string {
	switch b, plain := s.Raw(); {
	case !plain:
		return s.Unescape(b)
	case string(b) == "allow":
		return "allow"
	case string(b) == "deny":
		return "deny"
	default:
		return string(b)
	}
}

func scanCheckBatchRequest(s *codec.Scanner) (req CheckBatchRequest) {
	s.Object(func(key []byte) uint32 {
		switch string(key) {
		case "resource":
			req.Resource = s.Str()
			return 1
		case "requesters":
			req.Requesters = s.Strings()
			return 2
		}
		return 0
	})
	return req
}

func scanCheckBatchResponse(s *codec.Scanner) (resp CheckBatchResponse) {
	s.Object(func(key []byte) uint32 {
		if string(key) != "decisions" {
			return 0
		}
		var stack [16]Decision // collects without regrowing; one copy out
		ds := stack[:0]
		s.Array(func() { ds = append(ds, scanDecision(s)) })
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
