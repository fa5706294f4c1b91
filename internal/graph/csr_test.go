package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// scanEdges collects every live edge of g by a scan of its edge table, the
// one store of edges that does not go through the CSR: each node's outgoing
// and incoming edges, in ID order.
func scanEdges(g *Graph) (out, in [][]Edge) {
	out, in = make([][]Edge, g.NumNodes()), make([][]Edge, g.NumNodes())
	g.Edges(func(e Edge) bool {
		out[e.From] = append(out[e.From], e)
		in[e.To] = append(in[e.To], e)
		return true
	})
	return out, in
}

// ends returns the far endpoint of each of es with label l: To when out,
// From otherwise.
func ends(es []Edge, l Label, out bool) []uint32 {
	var r []uint32
	for _, e := range es {
		if e.Label == l {
			if out {
				r = append(r, uint32(e.To))
			} else {
				r = append(r, uint32(e.From))
			}
		}
	}
	return r
}

// labeled returns the edges of es with label l.
func labeled(es []Edge, l Label) []Edge {
	var r []Edge
	for _, e := range es {
		if e.Label == l {
			r = append(r, e)
		}
	}
	return r
}

// checkCSR asserts that g's CSR — patched by whatever mutations it lived
// through, or just laid out — agrees with a scan of the live edge table:
// OutEdges, InEdges and Neighbors visit each node's edges in ID order, and
// LabeledOutEdges and LabeledInEdges those under one label,
// OutDegree and InDegree count them, FindEdge finds every live edge and no
// other, and every (node, label) run holds the edges' far ends in ID order,
// as do the runs of a CSR laid out from scratch on a clone and of a rebased
// clone.
func checkCSR(t *testing.T, g *Graph) {
	t.Helper()
	c := g.CSR()
	if c == nil {
		t.Fatal("CSR() = nil")
	}
	if c.NumNodes() != g.NumNodes() || c.NumLabels() > g.NumLabels() {
		t.Fatalf("CSR over %d nodes and %d labels, graph has %d and %d", c.NumNodes(), c.NumLabels(), g.NumNodes(), g.NumLabels())
	}
	out, in := scanEdges(g)
	rebuilt := g.Clone().BuildCSR()
	rebased := g.Clone().Rebase()
	collect := func(each func(NodeID, func(Edge) bool), n NodeID) []Edge {
		var es []Edge
		each(n, func(e Edge) bool { es = append(es, e); return true })
		return es
	}
	for n := NodeID(0); int(n) < g.NumNodes(); n++ {
		if got := collect(g.OutEdges, n); !reflect.DeepEqual(got, out[n]) {
			t.Fatalf("node %d: OutEdges %v, the edge table has %v", n, got, out[n])
		}
		if got := collect(g.InEdges, n); !reflect.DeepEqual(got, in[n]) {
			t.Fatalf("node %d: InEdges %v, the edge table has %v", n, got, in[n])
		}
		var nbrs, want []NodeID
		g.Neighbors(n, func(m NodeID) bool { nbrs = append(nbrs, m); return true })
		for _, e := range out[n] {
			want = append(want, e.To)
		}
		if !slices.Equal(nbrs, want) {
			t.Fatalf("node %d: Neighbors %v, want %v", n, nbrs, want)
		}
		if g.OutDegree(n) != len(out[n]) || g.InDegree(n) != len(in[n]) {
			t.Fatalf("node %d: degrees (%d, %d), want (%d, %d)", n, g.OutDegree(n), g.InDegree(n), len(out[n]), len(in[n]))
		}
		for _, e := range out[n] {
			if id := g.FindEdge(e.From, e.To, e.Label); id != e.ID {
				t.Fatalf("FindEdge(%s) = %d, want %d", g.EdgeString(e), id, e.ID)
			}
		}
		for l := Label(0); int(l) < g.NumLabels(); l++ {
			if g.FindEdge(n, n, l) != InvalidEdge {
				t.Fatalf("FindEdge found a self-loop on node %d", n)
			}
			for _, dir := range []struct {
				name string
				each func(NodeID, Label, func(Edge) bool)
				want []Edge
			}{
				{"LabeledOutEdges", g.LabeledOutEdges, labeled(out[n], l)},
				{"LabeledInEdges", g.LabeledInEdges, labeled(in[n], l)},
			} {
				var got []Edge
				dir.each(n, l, func(e Edge) bool { got = append(got, e); return true })
				if !reflect.DeepEqual(got, dir.want) {
					t.Fatalf("node %d label %d: %s %v, the edge table has %v", n, l, dir.name, got, dir.want)
				}
			}
			if int(l) >= c.NumLabels() {
				if ends(out[n], l, true) != nil || ends(in[n], l, false) != nil {
					t.Fatalf("node %d has edges under label %d, which the CSR has no cells for", n, l)
				}
				continue
			}
			for _, dir := range []struct {
				name string
				runs [3][]uint32
				want []uint32
			}{
				{"out", [3][]uint32{c.OutNeighbors(n, l), rebuilt.OutNeighbors(n, l), rebased.OutNeighbors(n, l)}, ends(out[n], l, true)},
				{"in", [3][]uint32{c.InNeighbors(n, l), rebuilt.InNeighbors(n, l), rebased.InNeighbors(n, l)}, ends(in[n], l, false)},
			} {
				for _, r := range dir.runs {
					if !slices.Equal(r, dir.want) {
						t.Fatalf("node %d label %d: %s runs (graph's CSR, rebuilt, rebased) = %v, the edge table has %v", n, l, dir.name, dir.runs, dir.want)
					}
				}
			}
		}
	}
	if c.overlay > c.limit && !g.NeedsRebase() {
		t.Fatalf("overlay %d past the bound %d, but NeedsRebase is false", c.overlay, c.limit)
	}
}

func TestCSRMatchesEdgeLists(t *testing.T) {
	g := New()
	a := g.MustAddNode("a", nil)
	b := g.MustAddNode("b", nil)
	c := g.MustAddNode("c", nil)
	d := g.MustAddNode("d", nil)
	g.MustAddEdge(a, b, "friend")
	g.MustAddEdge(a, c, "friend")
	g.MustAddEdge(a, b, "colleague")
	g.MustAddEdge(b, c, "friend")
	g.MustAddEdge(c, a, "parent")
	g.MustAddEdge(d, a, "friend")
	checkCSR(t, g)

	// Removal tombstones an edge; every view must skip it.
	id := g.FindEdge(a, c, g.Label("friend"))
	if err := g.RemoveEdge(id); err != nil {
		t.Fatal(err)
	}
	checkCSR(t, g)

	// A rebase renumbers edges but not adjacency.
	g.Rebase()
	checkCSR(t, g)
}

func TestCSREmptyAndLabelFree(t *testing.T) {
	g := New()
	if c := g.CSR(); c == nil || c.NumNodes() != 0 || c.NumLabels() != 0 {
		t.Fatalf("CSR() over an empty graph = %+v, want an empty one", c)
	}
	if g.NeedsRebase() {
		t.Fatal("an empty graph should not ask for a rebase")
	}
	a := g.MustAddNode("a", nil)
	g.MustAddNode("b", nil)
	if c := g.CSR(); c == nil || c.NumNodes() != 2 {
		t.Fatal("CSR() over a label-free graph should cover its nodes")
	}
	if d := g.OutDegree(a); d != 0 {
		t.Fatalf("OutDegree = %d, want 0", d)
	}
	// A label no edge carries gets no cells, so nothing can find it.
	l := g.Label("friend")
	if g.CSR().NumLabels() != 0 || g.FindEdge(a, 1, l) != InvalidEdge {
		t.Fatal("interning a label alone should lay nothing out")
	}
	checkCSR(t, g)
}

// TestCSRCachingAndStaleness pins how the one CSR follows its graph: every
// mutation patches it in place and it stays the graph's CSR, the same
// object, until an edge under a label it has no cells for re-lays it out.
// Patches past the overlay bound only ask for a rebase, and a rebase lays a
// new one out over the new base.
func TestCSRCachingAndStaleness(t *testing.T) {
	g := New()
	const nodes = 64
	for i := 0; i < nodes; i++ {
		g.MustAddNode(fmt.Sprintf("n%d", i), nil)
	}
	for i := 0; i < nodes; i++ {
		g.MustAddEdge(NodeID(i), NodeID((i+1)%nodes), "friend")
		g.MustAddEdge(NodeID(i), NodeID((i+5)%nodes), "colleague")
	}
	g.Rebase()
	c1 := g.CSR()
	same := func(after string) {
		t.Helper()
		if got := g.CSR(); got != c1 {
			t.Fatalf("CSR() = %p after %s, want the CSR laid out before it (%p)", got, after, c1)
		}
		checkCSR(t, g)
	}
	same("the rebase")
	id := g.MustAddEdge(3, 9, "friend")
	same("an edge addition")
	if err := g.RemoveEdge(id); err != nil {
		t.Fatal(err)
	}
	same("a removal from a patched cell")
	if err := g.RemoveEdge(g.FindEdge(10, 11, g.Label("friend"))); err != nil {
		t.Fatal(err)
	}
	same("a removal from a slab cell")
	late := g.MustAddNode("late", nil)
	g.MustAddEdge(late, 0, "colleague")
	g.MustAddEdge(1, late, "friend")
	same("a node addition")
	if g.NeedsRebase() {
		t.Fatal("a patched CSR over the base should not ask for a rebase")
	}
	if c := g.Rebase(); c == c1 || g.CSR() != c || g.NeedsRebase() || g.NumTombstones() != 0 {
		t.Fatal("Rebase should lay a new CSR over a tombstone-free base")
	}
	c1 = g.CSR()

	// Interning a label lays nothing out; the first edge under it re-lays
	// the CSR out with cells for it, over the private part too.
	g.MustAddEdge(4, 40, "friend")
	g.Label("parent")
	same("interning a label")
	g.MustAddEdge(2, 7, "parent")
	c2 := g.CSR()
	if c2 == c1 || c2.NumLabels() != 3 || !g.NeedsRebase() {
		t.Fatal("an edge under a new label should re-lay the CSR out and ask for a rebase")
	}
	checkCSR(t, g)
	g.Rebase()

	// Patches beyond the overlay bound ask for a rebase; until then the
	// same CSR keeps serving, and correctly.
	c1 = g.CSR()
	mutations := 0
	for i := 0; !g.NeedsRebase(); i++ {
		if mutations = i; i > 2*(g.NumNodes()+g.NumEdges()) {
			t.Fatal("overlay bound never crossed")
		}
		g.MustAddEdge(NodeID(i%nodes), NodeID((i+9+i/nodes)%nodes), "parent")
	}
	if mutations < overlayFloor/4 {
		t.Fatalf("rebase asked for after only %d mutations", mutations)
	}
	same("crossing the overlay bound")
}

// TestCSRCellBound pins the explicit errors at the cell bound: a node or an
// edge that would take the CSR past maxCSRCells is refused, and the graph
// stays as it was. Labels are interned with Label, which lays nothing out,
// and the CSR is only ever laid out over two nodes, so nothing large is
// allocated.
func TestCSRCellBound(t *testing.T) {
	const labels = 1 << 15
	g := New()
	a, b := g.MustAddNode("a", nil), g.MustAddNode("b", nil)
	for i := range labels {
		g.Label(fmt.Sprintf("l%d", i))
	}
	g.MustAddEdge(a, b, "l0")
	if g.CSR().NumLabels() != labels {
		t.Fatalf("CSR has cells for %d labels, want %d", g.CSR().NumLabels(), labels)
	}
	for i := 2; i < maxCSRCells/labels; i++ {
		g.MustAddNode(fmt.Sprintf("n%d", i), nil)
	}
	v := g.Version()
	if id, err := g.AddNode("over", nil); err == nil || id != InvalidNode {
		t.Fatalf("AddNode past the cell bound = %d, %v, want an error", id, err)
	}
	if _, err := g.AddEdge(a, b, "new"); err == nil {
		t.Fatal("AddEdge under a new label past the cell bound should fail")
	}
	if g.Version() != v || g.NumNodes() != maxCSRCells/labels || g.NumLabels() != labels {
		t.Fatalf("failed mutations changed the graph: version %d→%d, %d nodes, %d labels", v, g.Version(), g.NumNodes(), g.NumLabels())
	}
	// Labels interned alone may exceed the bound with the nodes; the edge
	// that would need their cells is refused, and a Loader refuses the
	// graph.
	g.Label("l-past")
	if _, err := g.AddEdge(a, b, "l-past"); err == nil {
		t.Fatal("AddEdge under a label past the cell bound should fail")
	}
	if _, err := g.AddEdge(b, a, "l1"); err != nil {
		t.Fatalf("an edge under a label with cells: %v", err)
	}
	l := NewLoader()
	for i := range maxCSRCells/labels + 1 {
		l.AddNode(fmt.Sprintf("n%d", i), nil)
	}
	for i := range labels {
		l.AddEdge(0, 1, fmt.Sprintf("l%d", i), 0)
	}
	if _, err := l.Graph(); err == nil {
		t.Fatal("Loader.Graph past the cell bound should fail")
	}
}

func TestDegreesO1ViaCSR(t *testing.T) {
	g := New()
	rng := rand.New(rand.NewSource(7))
	const nodes = 40
	for i := 0; i < nodes; i++ {
		g.MustAddNode(string(rune('A'+i%26))+string(rune('0'+i/26)), nil)
	}
	labels := []string{"friend", "colleague", "parent"}
	for i := 0; i < 300; i++ {
		from := NodeID(rng.Intn(nodes))
		to := NodeID(rng.Intn(nodes))
		if from == to {
			continue
		}
		_, _ = g.AddEdge(from, to, labels[rng.Intn(len(labels))])
	}
	// Degrees of a patched CSR (overlay sums) and of a rebased one
	// (offsets) must agree with each other and with the edge table.
	type deg struct{ out, in int }
	want := make([]deg, nodes)
	out, in := scanEdges(g)
	for i := range want {
		want[i] = deg{len(out[i]), len(in[i])}
		if got := (deg{g.OutDegree(NodeID(i)), g.InDegree(NodeID(i))}); got != want[i] {
			t.Fatalf("node %d: patched CSR degrees %v, want %v", i, got, want[i])
		}
	}
	g.Rebase()
	for i := range want {
		if got := (deg{g.OutDegree(NodeID(i)), g.InDegree(NodeID(i))}); got != want[i] {
			t.Fatalf("node %d: CSR degrees %v, want %v", i, got, want[i])
		}
	}
	st := g.Stats()
	maxOut, maxIn := 0, 0
	for _, d := range want {
		maxOut, maxIn = max(maxOut, d.out), max(maxIn, d.in)
	}
	if st.MaxOutDegree != maxOut || st.MaxInDegree != maxIn {
		t.Fatalf("Stats degrees (%d,%d), want (%d,%d)", st.MaxOutDegree, st.MaxInDegree, maxOut, maxIn)
	}
}

// TestCSRVersionAndNodes covers the CSR's identity accessors, and that it
// follows the graph across versions without being replaced.
func TestCSRVersionAndNodes(t *testing.T) {
	g := New()
	a := g.MustAddNode("a", nil)
	b := g.MustAddNode("b", nil)
	g.MustAddEdge(a, b, "friend")
	c := g.CSR()
	if c.NumNodes() != 2 || c.NumLabels() != 1 {
		t.Fatalf("CSR over %d nodes and %d labels, want 2 and 1", c.NumNodes(), c.NumLabels())
	}
	v := g.Version()
	g.MustAddNode("c", nil)
	g.MustAddEdge(b, a, "friend")
	if g.Version() == v || g.CSR() != c || c.NumNodes() != 3 {
		t.Fatalf("after two mutations: CSR %p over %d nodes, want %p over 3", g.CSR(), c.NumNodes(), c)
	}
}
