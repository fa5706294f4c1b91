package wal

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"reachac/internal/core"
	"reachac/internal/generate"
	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// benchState is the state the durability benchmarks encode: a 20 000-node
// ldbc graph (degree 8, seed 1), a store of 1 000 one-rule resources, and
// the record group that imports the graph into a fresh network as one
// batch — one node addition per node, then one edge addition per edge.
func benchState(b *testing.B) (*graph.Graph, *core.Store, []Op) {
	b.Helper()
	top, err := generate.New("ldbc", generate.WithNodes(20000), generate.WithDegree(8), generate.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	g, err := generate.Build(top)
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewStore()
	path := pathexpr.MustParse("friend+[1,2]")
	for i := 0; i < 1000; i++ {
		res := core.ResourceID(fmt.Sprintf("res-%04d", i))
		owner := graph.NodeID(i * 17 % g.NumNodes())
		if err := s.Register(res, owner); err != nil {
			b.Fatal(err)
		}
		if err := s.AddRule(&core.Rule{Resource: res, Owner: owner, Conditions: []core.Condition{{Path: path}}}); err != nil {
			b.Fatal(err)
		}
	}
	var ops []Op
	g.Nodes(func(n graph.Node) bool {
		ops = append(ops, GraphOp(graph.Delta{Op: graph.OpAddNode, Name: n.Name}))
		return true
	})
	g.Edges(func(e graph.Edge) bool {
		ops = append(ops, GraphOp(graph.Delta{Op: graph.OpAddEdge, From: e.From, To: e.To, Label: g.LabelName(e.Label)}))
		return true
	})
	return g, s, ops
}

var oneOp = []Op{GraphOp(graph.Delta{Op: graph.OpAddEdge, From: 12, To: 3456, Label: "friend"})}

// BenchmarkEncodeGroup encodes and frames one record group, in a Group
// reused across iterations as the log reuses its own: a one-op group, and
// the import group of benchState.
func BenchmarkEncodeGroup(b *testing.B) {
	_, _, imp := benchState(b)
	for _, bc := range []struct {
		name string
		ops  []Op
	}{{"one-op", oneOp}, {"import", imp}} {
		b.Run(bc.name, func(b *testing.B) {
			var (
				g     Group
				frame [][]byte
			)
			for b.Loop() {
				g.Reset()
				for i := range bc.ops {
					if err := g.Add(&bc.ops[i]); err != nil {
						b.Fatal(err)
					}
				}
				var err error
				if frame, _, err = g.appendFrame(frame[:0], Chain{}); err != nil {
					b.Fatal(err)
				}
			}
			size := 0
			for _, c := range frame {
				size += len(c)
			}
			b.SetBytes(int64(size))
		})
	}
}

// BenchmarkDecodeGroup decodes the payloads BenchmarkEncodeGroup frames.
func BenchmarkDecodeGroup(b *testing.B) {
	_, _, imp := benchState(b)
	for _, bc := range []struct {
		name string
		ops  []Op
	}{{"one-op", oneOp}, {"import", imp}} {
		b.Run(bc.name, func(b *testing.B) {
			frame, _, err := encodeFrame(nil, Chain{}, bc.ops)
			if err != nil {
				b.Fatal(err)
			}
			payload := frame[frameHeaderSize:]
			b.SetBytes(int64(len(payload)))
			for b.Loop() {
				if _, err := decodeGroup(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointWrite serializes benchState's graph and store.
func BenchmarkCheckpointWrite(b *testing.B) {
	g, s, _ := benchState(b)
	for b.Loop() {
		if err := writeCheckpoint(io.Discard, g, s, Chain{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRead deserializes what BenchmarkCheckpointWrite
// writes, rebuilding the graph and the store.
func BenchmarkCheckpointRead(b *testing.B) {
	g, s, _ := benchState(b)
	var buf bytes.Buffer
	if err := writeCheckpoint(&buf, g, s, Chain{}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	for b.Loop() {
		if _, _, err := ReadState(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecover recovers a log of 10 000 one-op groups, each adding a
// node; ns/group is what recovery costs a logged mutation.
func BenchmarkRecover(b *testing.B) {
	const groups = 10000
	dir := b.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < groups; i++ {
		if err := l.Append([]Op{GraphOp(graph.Delta{Op: graph.OpAddNode, Name: fmt.Sprintf("n%06d", i)})}); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		rec, err := Recover(dir)
		if err != nil || rec.Groups != groups {
			b.Fatalf("recovered %d groups: %v", rec.Groups, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*groups), "ns/group")
}
