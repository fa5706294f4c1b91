package generate

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"reachac/internal/graph"
)

// OpKind discriminates the two record kinds a Topology emits.
type OpKind uint8

const (
	// OpNode introduces the next member. Nodes are emitted first, in
	// dense ID order: the i-th OpNode is node i.
	OpNode OpKind = iota
	// OpEdge adds one directed typed relationship between two
	// already-introduced members.
	OpEdge
)

// Op is one record of a topology stream. Which fields are meaningful
// depends on Kind.
type Op struct {
	Kind OpKind
	// Name and Attrs describe an OpNode.
	Name  string
	Attrs graph.Attrs
	// From, To and Label describe an OpEdge.
	From, To graph.NodeID
	Label    string
}

// Topology is a seeded synthetic graph emitted as a stream: Stream calls
// emit once per node and once per edge instead of materializing a
// *graph.Graph, so a consumer (gengraph's file writer, Build's loader)
// can write or lay out a million-node graph without generator state
// beyond the stream.
//
// Contract, relied on by every consumer:
//
//   - Deterministic: two Streams of the same Topology emit byte-identical
//     op sequences. Stream may therefore be called repeatedly (gengraph
//     runs a counting pass before its writing pass).
//   - Nodes first: all OpNode records precede all OpEdge records, and
//     node i of the stream is graph.NodeID(i) (names follow UserName).
//   - Duplicate-free: no two OpEdges carry the same (From, To, Label)
//     triple and no edge is a self-loop, so replaying the stream through
//     graph.AddEdge or Tx.Relate never trips the duplicate check.
//   - An error returned by emit aborts the stream and is returned as is.
type Topology interface {
	// Kind names the generator family ("osn", "ldbc", "er", "ba", "ws").
	Kind() string
	// Nodes is the exact number of OpNode records Stream emits.
	Nodes() int
	// Seed is the stream's random seed.
	Seed() int64
	// Stream emits the topology. See the interface contract above.
	Stream(emit func(Op) error) error
}

// Build materializes a topology into a graph through a graph.Loader, so
// the graph comes back rebased, laid out in one pass. A network takes
// the graph over with reachac.FromGraph, or durably with reachac.Create;
// gengraph streams a topology to disk without building it.
func Build(t Topology) (*graph.Graph, error) {
	l := graph.NewLoader()
	l.Grow(t.Nodes(), 0)
	err := t.Stream(func(op Op) error {
		switch op.Kind {
		case OpNode:
			_, err := l.AddNode(op.Name, op.Attrs)
			return err
		case OpEdge:
			return l.AddEdge(op.From, op.To, op.Label, 0)
		default:
			return fmt.Errorf("generate: unknown op kind %d", op.Kind)
		}
	})
	var g *graph.Graph
	if err == nil {
		g, err = l.Graph()
	}
	if err != nil {
		return nil, fmt.Errorf("generate: building %s topology: %w", t.Kind(), err)
	}
	return g, nil
}

// MustBuild is Build for fixtures and tests; it panics on error.
func MustBuild(t Topology) *graph.Graph {
	g, err := Build(t)
	if err != nil {
		panic(err)
	}
	return g
}

// Count streams the topology once, discarding ops, and returns the exact
// node and edge counts — the header pass of gengraph's two-pass streaming
// writer.
func Count(t Topology) (nodes, edges int, err error) {
	err = t.Stream(func(op Op) error {
		if op.Kind == OpNode {
			nodes++
		} else {
			edges++
		}
		return nil
	})
	return nodes, edges, err
}

// Fingerprint hashes the canonical encoding of the full op stream
// (FNV-1a 64). Two topologies with the same fingerprint emitted the same
// stream byte for byte — the determinism property the tests and the
// artifact comparability rest on.
func Fingerprint(t Topology) (uint64, error) {
	h := fnv.New64a()
	var scratch [9]byte
	err := t.Stream(func(op Op) error {
		scratch[0] = byte(op.Kind)
		binary.LittleEndian.PutUint32(scratch[1:5], uint32(op.From))
		binary.LittleEndian.PutUint32(scratch[5:9], uint32(op.To))
		h.Write(scratch[:])
		h.Write([]byte(op.Name))
		h.Write([]byte(op.Label))
		if len(op.Attrs) > 0 {
			keys := make([]string, 0, len(op.Attrs))
			for k := range op.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				h.Write([]byte(k))
				h.Write([]byte(op.Attrs[k].String()))
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}
