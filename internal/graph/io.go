package graph

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The on-disk format is line-delimited JSON: one header record, then one
// record per node, then one record per live edge. It is stable, diffable,
// and streams without loading the whole file.

type ioHeader struct {
	Magic string `json:"magic"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

type ioValue struct {
	Kind string  `json:"k"`
	Str  string  `json:"s,omitempty"`
	Num  float64 `json:"n,omitempty"`
	Bool bool    `json:"b,omitempty"`
}

type ioNode struct {
	Name  string             `json:"name"`
	Attrs map[string]ioValue `json:"attrs,omitempty"`
}

type ioEdge struct {
	From   uint32  `json:"f"`
	To     uint32  `json:"t"`
	Label  string  `json:"l"`
	Weight float64 `json:"w,omitempty"`
}

const ioMagic = "reachac-graph-v1"

func encodeValue(v Value) ioValue {
	switch v.Kind() {
	case KindNumber:
		return ioValue{Kind: "n", Num: v.Num()}
	case KindBool:
		return ioValue{Kind: "b", Bool: v.B()}
	default:
		return ioValue{Kind: "s", Str: v.Str()}
	}
}

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

// MarshalJSON encodes the value in the same tagged form the graph file
// format uses, so types like Delta (whose Attrs carry Values) can be
// serialized with encoding/json — the WAL's record payloads rely on this.
func (v Value) MarshalJSON() ([]byte, error) {
	return json.Marshal(encodeValue(v))
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

// StreamWriter emits the graph file format record by record, so callers
// that produce nodes and edges incrementally (cmd/gengraph streaming a
// Topology) never hold a whole graph in memory. The format's header
// carries exact counts, so they must be known up front; Close validates
// that exactly that many records were written and that the underlying
// writer accepted every byte — a StreamWriter that Closes without error
// has produced a complete, loadable file.
type StreamWriter struct {
	bw         *bufio.Writer
	enc        *json.Encoder
	wantNodes  int
	wantEdges  int
	nodes      int
	edges      int
	firstError error
}

// NewStreamWriter starts a graph file on w declaring the given node and
// edge counts in the header.
func NewStreamWriter(w io.Writer, nodes, edges int) *StreamWriter {
	bw := bufio.NewWriter(w)
	sw := &StreamWriter{bw: bw, enc: json.NewEncoder(bw), wantNodes: nodes, wantEdges: edges}
	sw.firstError = sw.enc.Encode(ioHeader{Magic: ioMagic, Nodes: nodes, Edges: edges})
	return sw
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
	rec := ioNode{Name: name}
	if len(attrs) > 0 {
		rec.Attrs = make(map[string]ioValue, len(attrs))
		for k, v := range attrs {
			rec.Attrs[k] = encodeValue(v)
		}
	}
	if err := sw.enc.Encode(rec); err != nil {
		return sw.fail(err)
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
	if err := sw.enc.Encode(ioEdge{From: uint32(from), To: uint32(to), Label: label, Weight: weight}); err != nil {
		return sw.fail(err)
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

// Read deserializes a graph written by Write.
func Read(r io.Reader) (*Graph, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var hdr ioHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if hdr.Magic != ioMagic {
		return nil, fmt.Errorf("graph: bad magic %q", hdr.Magic)
	}
	g := New()
	for i := 0; i < hdr.Nodes; i++ {
		var rec ioNode
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("graph: reading node %d: %w", i, err)
		}
		var attrs Attrs
		if len(rec.Attrs) > 0 {
			attrs = make(Attrs, len(rec.Attrs))
			for k, v := range rec.Attrs {
				val, err := decodeValue(v)
				if err != nil {
					return nil, err
				}
				attrs[k] = val
			}
		}
		if _, err := g.AddNode(rec.Name, attrs); err != nil {
			return nil, err
		}
	}
	for i := 0; i < hdr.Edges; i++ {
		var rec ioEdge
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("graph: reading edge %d: %w", i, err)
		}
		if _, err := g.AddWeightedEdge(NodeID(rec.From), NodeID(rec.To), rec.Label, rec.Weight); err != nil {
			return nil, err
		}
	}
	return g, nil
}
