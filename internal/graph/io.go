package graph

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"

	"reachac/internal/codec"
)

// The on-disk format is line-delimited JSON: one header record, then one
// record per node, then one record per live edge. It is stable, diffable,
// and streams without loading the whole file. The record types below define
// it by their tags; the appenders and scanners after them write and read
// it on the internal/codec kernel, under its equivalence contract with
// encoding/json.

type ioHeader struct {
	Magic string `json:"magic"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

// ioValue is a Value's tagged form.
type ioValue struct {
	Kind string  `json:"k"`
	Str  string  `json:"s,omitempty"`
	Num  float64 `json:"n,omitempty"`
	Bool bool    `json:"b,omitempty"`
}

type ioNode struct {
	Name  string             `json:"name"`
	Attrs map[string]ioValue `json:"attrs,omitempty"`
	// attrs holds the attributes instead when scanNode read the record.
	attrs Attrs
}

type ioEdge struct {
	From   uint32  `json:"f"`
	To     uint32  `json:"t"`
	Label  string  `json:"l"`
	Weight float64 `json:"w,omitempty"`
}

const ioMagic = "reachac-graph-v1"

func decodeValue(v ioValue) (Value, error) {
	switch v.Kind {
	case "s":
		return String(v.Str), nil
	case "n":
		return Number(v.Num), nil
	case "b":
		return Bool(v.Bool), nil
	default:
		return Value{}, fmt.Errorf("graph: unknown value kind %q", v.Kind)
	}
}

// MarshalJSON encodes the value in the tagged form the graph file format
// uses, so types like Delta (whose Attrs carry Values) can be serialized
// with encoding/json.
func (v Value) MarshalJSON() ([]byte, error) {
	return appendValue(nil, v)
}

// UnmarshalJSON decodes a value written by MarshalJSON.
func (v *Value) UnmarshalJSON(b []byte) error {
	var iv ioValue
	if err := json.Unmarshal(b, &iv); err != nil {
		return err
	}
	dv, err := decodeValue(iv)
	if err != nil {
		return err
	}
	*v = dv
	return nil
}

// appendValue appends v's tagged JSON form to dst.
func appendValue(dst []byte, v Value) ([]byte, error) {
	switch v.Kind() {
	case KindNumber:
		if v.num == 0 {
			return append(dst, `{"k":"n"}`...), nil
		}
		dst, err := codec.AppendFloat(append(dst, `{"k":"n","n":`...), v.num)
		return append(dst, '}'), err
	case KindBool:
		if !v.b {
			return append(dst, `{"k":"b"}`...), nil
		}
		return append(dst, `{"k":"b","b":true}`...), nil
	default:
		if v.str == "" {
			return append(dst, `{"k":"s"}`...), nil
		}
		dst = codec.AppendString(append(dst, `{"k":"s","s":`...), v.str)
		return append(dst, '}'), nil
	}
}

// scanValue reads one value in its tagged JSON form.
func scanValue(s *codec.Scanner) Value {
	var iv ioValue
	s.Object(func(key []byte) uint32 {
		switch string(key) {
		case "k":
			switch b, _ := s.Raw(); string(b) { // any other tag fails decodeValue
			case "s":
				iv.Kind = "s"
			case "n":
				iv.Kind = "n"
			case "b":
				iv.Kind = "b"
			}
			return 1
		case "s":
			iv.Str = s.Str()
			return 2
		case "n":
			iv.Num = s.Float()
			return 4
		case "b":
			iv.Bool = s.Bool()
			return 8
		}
		return 0
	})
	v, err := decodeValue(iv)
	if err != nil {
		s.Fail()
	}
	return v
}

// appendAttrs appends a as json.Marshal writes it: an object of tagged
// values in ascending key order.
func appendAttrs(dst []byte, a Attrs) ([]byte, error) {
	var stack [8]string
	keys := stack[:0]
	for k := range a {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendValue(append(codec.AppendString(dst, k), ':'), a[k]); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// scanAttrs reads one attribute object into a fresh non-nil map.
func scanAttrs(s *codec.Scanner) Attrs {
	a := Attrs{}
	s.Map(func(key string) { a[key] = scanValue(s) })
	return a
}

// appendHeader, appendNode and appendEdge append one record line each.
func appendHeader(dst []byte, nodes, edges int) []byte {
	dst = strconv.AppendInt(append(dst, `{"magic":"`+ioMagic+`","nodes":`...), int64(nodes), 10)
	dst = strconv.AppendInt(append(dst, `,"edges":`...), int64(edges), 10)
	return append(dst, "}\n"...)
}

func appendNode(dst []byte, name string, attrs Attrs) ([]byte, error) {
	dst = codec.AppendString(append(dst, `{"name":`...), name)
	if len(attrs) > 0 {
		var err error
		if dst, err = appendAttrs(append(dst, `,"attrs":`...), attrs); err != nil {
			return dst, err
		}
	}
	return append(dst, "}\n"...), nil
}

func appendEdge(dst []byte, from, to NodeID, label string, weight float64) ([]byte, error) {
	dst = strconv.AppendUint(append(dst, `{"f":`...), uint64(from), 10)
	dst = strconv.AppendUint(append(dst, `,"t":`...), uint64(to), 10)
	dst = codec.AppendString(append(dst, `,"l":`...), label)
	if weight != 0 {
		var err error
		if dst, err = codec.AppendFloat(append(dst, `,"w":`...), weight); err != nil {
			return dst, err
		}
	}
	return append(dst, "}\n"...), nil
}

func scanHeader(s *codec.Scanner) (h ioHeader) {
	s.Object(func(key []byte) uint32 {
		switch string(key) {
		case "magic":
			h.Magic = s.Str()
			return 1
		case "nodes":
			h.Nodes = int(s.Int(64))
			return 2
		case "edges":
			h.Edges = int(s.Int(64))
			return 4
		}
		return 0
	})
	return h
}

func scanNode(s *codec.Scanner) (n ioNode) {
	s.Object(func(key []byte) uint32 {
		switch string(key) {
		case "name":
			n.Name = s.Str()
			return 1
		case "attrs":
			n.attrs = scanAttrs(s)
			return 2
		}
		return 0
	})
	return n
}

func scanEdge(s *codec.Scanner) (e ioEdge) {
	s.Object(func(key []byte) uint32 {
		switch string(key) {
		case "f":
			e.From = uint32(s.Uint(32))
			return 1
		case "t":
			e.To = uint32(s.Uint(32))
			return 2
		case "l":
			e.Label = s.Str()
			return 4
		case "w":
			e.Weight = s.Float()
			return 8
		}
		return 0
	})
	return e
}

// StreamWriter emits the graph file format record by record, so callers
// that produce nodes and edges incrementally (cmd/gengraph streaming a
// Topology) never hold a whole graph in memory. The format's header
// carries exact counts, so they must be known up front; Close validates
// that exactly that many records were written and that the underlying
// writer accepted every byte — a StreamWriter that Closes without error
// has produced a complete, loadable file.
type StreamWriter struct {
	bw         *bufio.Writer
	buf        []byte
	wantNodes  int
	wantEdges  int
	nodes      int
	edges      int
	firstError error
}

// NewStreamWriter starts a graph file on w declaring the given node and
// edge counts in the header.
func NewStreamWriter(w io.Writer, nodes, edges int) *StreamWriter {
	sw := &StreamWriter{bw: bufio.NewWriter(w), wantNodes: nodes, wantEdges: edges}
	sw.write(appendHeader(sw.buf, nodes, edges), nil)
	return sw
}

// write writes one appended record line unless appending it failed.
func (sw *StreamWriter) write(b []byte, err error) error {
	sw.buf = b[:0]
	if err == nil {
		_, err = sw.bw.Write(b)
	}
	if err != nil {
		return sw.fail(err)
	}
	return nil
}

func (sw *StreamWriter) fail(err error) error {
	if sw.firstError == nil {
		sw.firstError = err
	}
	return sw.firstError
}

// Node writes the next node record. All nodes must be written, in node-ID
// order, before the first edge.
func (sw *StreamWriter) Node(name string, attrs Attrs) error {
	if sw.firstError != nil {
		return sw.firstError
	}
	if sw.edges > 0 {
		return sw.fail(fmt.Errorf("graph: node %q written after edges", name))
	}
	if sw.nodes >= sw.wantNodes {
		return sw.fail(fmt.Errorf("graph: more than the declared %d nodes", sw.wantNodes))
	}
	if err := sw.write(appendNode(sw.buf, name, attrs)); err != nil {
		return err
	}
	sw.nodes++
	return nil
}

// Edge writes the next edge record.
func (sw *StreamWriter) Edge(from, to NodeID, label string, weight float64) error {
	if sw.firstError != nil {
		return sw.firstError
	}
	if sw.nodes != sw.wantNodes {
		return sw.fail(fmt.Errorf("graph: edge written after %d of %d nodes", sw.nodes, sw.wantNodes))
	}
	if sw.edges >= sw.wantEdges {
		return sw.fail(fmt.Errorf("graph: more than the declared %d edges", sw.wantEdges))
	}
	if err := sw.write(appendEdge(sw.buf, from, to, label, weight)); err != nil {
		return err
	}
	sw.edges++
	return nil
}

// Close flushes buffered output and fails if the stream is incomplete —
// fewer records than the header declared, or any earlier write error.
func (sw *StreamWriter) Close() error {
	if sw.firstError != nil {
		return sw.firstError
	}
	if sw.nodes != sw.wantNodes || sw.edges != sw.wantEdges {
		return sw.fail(fmt.Errorf("graph: incomplete stream: %d/%d nodes, %d/%d edges",
			sw.nodes, sw.wantNodes, sw.edges, sw.wantEdges))
	}
	return sw.fail(sw.bw.Flush())
}

// Write serializes g to w. Tombstoned edges are dropped.
func (g *Graph) Write(w io.Writer) error {
	sw := NewStreamWriter(w, g.NumNodes(), g.NumEdges())
	g.Nodes(func(n Node) bool { return sw.Node(n.Name, n.Attrs) == nil })
	g.Edges(func(e Edge) bool { return sw.Edge(e.From, e.To, g.LabelName(e.Label), e.Weight) == nil })
	return sw.Close()
}

// maxPresize bounds the records Read makes room for up front: a header's
// counts are not trusted with an allocation larger than that.
const maxPresize = 1 << 20

// Read deserializes a graph written by Write. The stream must end after
// the records its header counts, but for whitespace.
func Read(r io.Reader) (*Graph, error) {
	lines := codec.NewLines(r)
	hdr, err := codec.Next(lines, scanHeader)
	if err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if hdr.Magic != ioMagic {
		return nil, fmt.Errorf("graph: bad magic %q", hdr.Magic)
	}
	l := NewLoader()
	l.Grow(min(max(hdr.Nodes, 0), maxPresize), min(max(hdr.Edges, 0), maxPresize))
	for i := 0; i < hdr.Nodes; i++ {
		rec, err := codec.Next(lines, scanNode)
		if err != nil {
			return nil, fmt.Errorf("graph: reading node %d: %w", i, err)
		}
		attrs := rec.attrs
		if len(rec.Attrs) > 0 {
			attrs = make(Attrs, len(rec.Attrs))
			for k, v := range rec.Attrs {
				if attrs[k], err = decodeValue(v); err != nil {
					return nil, err
				}
			}
		}
		if len(attrs) == 0 {
			attrs = nil
		}
		if _, err := l.AddNode(rec.Name, attrs); err != nil {
			return nil, err
		}
	}
	for i := 0; i < hdr.Edges; i++ {
		rec, err := codec.Next(lines, scanEdge)
		if err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", i, err)
		}
		if err := l.AddEdge(NodeID(rec.From), NodeID(rec.To), rec.Label, rec.Weight); err != nil {
			return nil, err
		}
	}
	if err := lines.End(); err != nil {
		return nil, fmt.Errorf("graph: after the header's %d nodes and %d edges: %w", hdr.Nodes, hdr.Edges, err)
	}
	return l.Graph()
}
