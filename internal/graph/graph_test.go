package graph

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

func buildTriangle(t *testing.T) (*Graph, NodeID, NodeID, NodeID) {
	t.Helper()
	g := New()
	a := g.MustAddNode("a", Attrs{"age": Int(24)})
	b := g.MustAddNode("b", nil)
	c := g.MustAddNode("c", Attrs{"job": String("teacher")})
	g.MustAddEdge(a, b, "friend")
	g.MustAddEdge(b, c, "friend")
	g.MustAddEdge(a, c, "colleague")
	return g, a, b, c
}

func TestAddNode(t *testing.T) {
	g := New()
	a, err := g.AddNode("alice", nil)
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if a != 0 {
		t.Fatalf("first node ID = %d, want 0", a)
	}
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
	if got := g.Node(a).Name; got != "alice" {
		t.Fatalf("Node(a).Name = %q", got)
	}
}

func TestAddNodeDuplicate(t *testing.T) {
	g := New()
	a := g.MustAddNode("alice", nil)
	id, err := g.AddNode("alice", nil)
	if err == nil {
		t.Fatal("duplicate AddNode succeeded")
	}
	if id != a {
		t.Fatalf("duplicate AddNode returned %d, want existing %d", id, a)
	}
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes after duplicate = %d, want 1", g.NumNodes())
	}
}

func TestNodeByName(t *testing.T) {
	g, a, _, _ := buildTriangle(t)
	id, ok := g.NodeByName("a")
	if !ok || id != a {
		t.Fatalf("NodeByName(a) = %d,%v", id, ok)
	}
	if _, ok := g.NodeByName("zed"); ok {
		t.Fatal("NodeByName(zed) found a ghost")
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g, a, b, _ := buildTriangle(t)
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if !g.HasEdge(a, b, "friend") {
		t.Fatal("missing a-friend->b")
	}
	if g.HasEdge(b, a, "friend") {
		t.Fatal("phantom reverse edge")
	}
	if g.HasEdge(a, b, "parent") {
		t.Fatal("phantom label")
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := New()
	a := g.MustAddNode("a", nil)
	if _, err := g.AddEdge(a, a, "friend"); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestAddEdgeRejectsDuplicate(t *testing.T) {
	g, a, b, _ := buildTriangle(t)
	if _, err := g.AddEdge(a, b, "friend"); err == nil {
		t.Fatal("duplicate (from,to,label) accepted")
	}
	// A different label between the same endpoints is fine.
	if _, err := g.AddEdge(a, b, "parent"); err != nil {
		t.Fatalf("parallel edge with new label rejected: %v", err)
	}
}

func TestAddEdgeRejectsBadEndpoints(t *testing.T) {
	g := New()
	g.MustAddNode("a", nil)
	if _, err := g.AddEdge(0, 99, "friend"); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

func TestRemoveEdge(t *testing.T) {
	g, a, b, _ := buildTriangle(t)
	eid := g.FindEdge(a, b, mustLabel(t, g, "friend"))
	if eid == InvalidEdge {
		t.Fatal("FindEdge failed")
	}
	if err := g.RemoveEdge(eid); err != nil {
		t.Fatalf("RemoveEdge: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges after removal = %d, want 2", g.NumEdges())
	}
	if g.HasEdge(a, b, "friend") {
		t.Fatal("removed edge still visible")
	}
	if err := g.RemoveEdge(eid); err == nil {
		t.Fatal("double removal accepted")
	}
	// Re-adding the relationship after removal must work.
	if _, err := g.AddEdge(a, b, "friend"); err != nil {
		t.Fatalf("re-add after removal: %v", err)
	}
}

func mustLabel(t *testing.T, g *Graph, name string) Label {
	t.Helper()
	l, ok := g.LookupLabel(name)
	if !ok {
		t.Fatalf("label %q not interned", name)
	}
	return l
}

func TestIterationSkipsTombstones(t *testing.T) {
	g, a, b, c := buildTriangle(t)
	eid := g.FindEdge(b, c, mustLabel(t, g, "friend"))
	if err := g.RemoveEdge(eid); err != nil {
		t.Fatal(err)
	}
	count := 0
	g.Edges(func(e Edge) bool { count++; return true })
	if count != 2 {
		t.Fatalf("Edges visited %d, want 2", count)
	}
	g.OutEdges(b, func(e Edge) bool {
		t.Fatalf("OutEdges(b) yielded tombstoned edge %v", e)
		return true
	})
	if d := g.InDegree(c); d != 1 {
		t.Fatalf("InDegree(c) = %d, want 1 (colleague from a)", d)
	}
	_ = a
}

func TestIterationEarlyStop(t *testing.T) {
	g, a, _, _ := buildTriangle(t)
	n := 0
	g.OutEdges(a, func(Edge) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d, want 1", n)
	}
	n = 0
	g.Nodes(func(Node) bool { n++; return false })
	if n != 1 {
		t.Fatalf("node early stop visited %d, want 1", n)
	}
	n = 0
	g.Edges(func(Edge) bool { n++; return false })
	if n != 1 {
		t.Fatalf("edge early stop visited %d, want 1", n)
	}
}

func TestDegrees(t *testing.T) {
	g, a, b, c := buildTriangle(t)
	if d := g.OutDegree(a); d != 2 {
		t.Fatalf("OutDegree(a) = %d, want 2", d)
	}
	if d := g.InDegree(c); d != 2 {
		t.Fatalf("InDegree(c) = %d, want 2", d)
	}
	if d := g.InDegree(b); d != 1 {
		t.Fatalf("InDegree(b) = %d, want 1", d)
	}
}

func TestLabelInterning(t *testing.T) {
	g := New()
	f1 := g.Label("friend")
	f2 := g.Label("friend")
	c := g.Label("colleague")
	if f1 != f2 {
		t.Fatalf("interning not idempotent: %d vs %d", f1, f2)
	}
	if f1 == c {
		t.Fatal("distinct labels collide")
	}
	if g.LabelName(f1) != "friend" {
		t.Fatalf("LabelName = %q", g.LabelName(f1))
	}
	if g.NumLabels() != 2 {
		t.Fatalf("NumLabels = %d, want 2", g.NumLabels())
	}
	labels := g.Labels()
	if len(labels) != 2 || labels[0] != "friend" || labels[1] != "colleague" {
		t.Fatalf("Labels() = %v", labels)
	}
}

func TestAttrs(t *testing.T) {
	g, a, _, c := buildTriangle(t)
	v, ok := g.Attr(a, "age")
	if !ok || v.Num() != 24 {
		t.Fatalf("Attr(a, age) = %v,%v", v, ok)
	}
	if _, ok := g.Attr(a, "job"); ok {
		t.Fatal("Attr found missing key")
	}
	if v, ok = g.Attr(c, "job"); !ok || v.Str() != "teacher" {
		t.Fatalf("Attr(c, job) = %v,%v", v, ok)
	}
	// A node added without attrs has none.
	if _, ok := g.Attr(1, "x"); ok {
		t.Fatal("Attr found a key on a node without attrs")
	}
	// Attributes passed to AddNode after a rebase are read back too.
	g.Rebase()
	d := g.MustAddNode("d", Attrs{"x": Bool(true)})
	if v, ok := g.Attr(d, "x"); !ok || !v.B() {
		t.Fatalf("Attr(d, x) = %v,%v", v, ok)
	}
}

func TestEdgeString(t *testing.T) {
	g, a, b, _ := buildTriangle(t)
	e := g.Edge(g.FindEdge(a, b, mustLabel(t, g, "friend")))
	if got := g.EdgeString(e); got != "friend a-b" {
		t.Fatalf("EdgeString = %q", got)
	}
}

func TestClone(t *testing.T) {
	g, a, b, c := buildTriangle(t)
	eid := g.FindEdge(a, b, mustLabel(t, g, "friend"))
	if err := g.RemoveEdge(eid); err != nil {
		t.Fatal(err)
	}
	cl := g.Clone()
	if cl.NumNodes() != 3 || cl.NumEdges() != 2 {
		t.Fatalf("clone has %d nodes %d edges", cl.NumNodes(), cl.NumEdges())
	}
	// Mutating the clone must not touch the original.
	cl.MustAddEdge(b, a, "friend")
	if g.HasEdge(b, a, "friend") {
		t.Fatal("clone mutation leaked into original")
	}
	// Attributes carry over, and a member the clone adds stays its own.
	if v, _ := cl.Attr(a, "age"); v.Num() != 24 {
		t.Fatal("clone lost an attribute")
	}
	d := cl.MustAddNode("d", Attrs{"age": Int(99)})
	if g.ValidNode(d) {
		t.Fatal("clone node addition leaked into original")
	}
	if v, _ := cl.Attr(d, "age"); v.Num() != 99 {
		t.Fatal("clone lost the attributes of its own node")
	}
	if !cl.HasEdge(b, c, "friend") {
		t.Fatal("clone lost an edge")
	}
}

func TestStats(t *testing.T) {
	g, _, _, _ := buildTriangle(t)
	s := g.Stats()
	if s.Nodes != 3 || s.Edges != 3 || s.Labels != 2 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.MaxOutDegree != 2 || s.MaxInDegree != 2 {
		t.Fatalf("Stats degrees = %+v", s)
	}
}

func TestSortedNodeNames(t *testing.T) {
	g := New()
	g.MustAddNode("zoe", nil)
	g.MustAddNode("amy", nil)
	names := g.SortedNodeNames()
	if strings.Join(names, ",") != "amy,zoe" {
		t.Fatalf("SortedNodeNames = %v", names)
	}
}

// TestEdgeFootprint pins what a base stores per edge: a 12-byte record, no
// weight column while every weight is zero, and one float per edge once some
// weight is not, so a fully weighted graph stores 20 bytes per edge. Each
// graph goes through all three ways Rebase builds a base: moving the loaded
// tables, appending to a base and compacting out a tombstone.
func TestEdgeFootprint(t *testing.T) {
	if got := unsafe.Sizeof(edgeRec{}); got != 12 {
		t.Fatalf("edge record is %d bytes, want 12", got)
	}
	for _, weight := range []float64{0, 0.5} {
		g := New()
		for i := 0; i < 100; i++ {
			g.MustAddNode(fmt.Sprintf("f%03d", i), nil)
		}
		for i := 0; i < 99; i++ {
			if _, err := g.AddWeightedEdge(NodeID(i), NodeID(i+1), "friend", weight); err != nil {
				t.Fatal(err)
			}
			if i == 49 || i == 98 {
				g.Rebase()
			}
		}
		if err := g.RemoveEdge(0); err != nil {
			t.Fatal(err)
		}
		g.Rebase()
		b := g.Base()
		if weight == 0 {
			if b.weights != nil {
				t.Fatalf("an unweighted base has a weight column of %d", len(b.weights))
			}
			continue
		}
		if len(b.weights) != len(b.edges) {
			t.Fatalf("%d weights for %d edges", len(b.weights), len(b.edges))
		}
		stored := int(unsafe.Sizeof(edgeRec{}))*len(b.edges) + int(unsafe.Sizeof(weight))*len(b.weights)
		if per := float64(stored) / float64(len(b.edges)); per > 20 {
			t.Fatalf("a weighted base stores %.1f bytes per edge, want at most 20", per)
		}
	}
}
