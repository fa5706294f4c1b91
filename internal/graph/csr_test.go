package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// legacyOutNeighbors collects n's live out-neighbors with label l via the
// edge-list iteration the CSR replaces, in insertion order.
func legacyOutNeighbors(g *Graph, n NodeID, l Label) []uint32 {
	var out []uint32
	g.OutEdges(n, func(e Edge) bool {
		if e.Label == l {
			out = append(out, uint32(e.To))
		}
		return true
	})
	return out
}

func legacyInNeighbors(g *Graph, n NodeID, l Label) []uint32 {
	var out []uint32
	g.InEdges(n, func(e Edge) bool {
		if e.Label == l {
			out = append(out, uint32(e.From))
		}
		return true
	})
	return out
}

// checkCSRAgainstLegacy asserts that the graph's CSR — patched by whatever
// mutations it lived through, or just built — matches a CSR built from
// scratch on a clone, the CSR a rebased clone lays out over its new base,
// and the edge-list view, for every (node, label) pair: same runs in the
// same order, same degrees.
func checkCSRAgainstLegacy(t *testing.T, g *Graph) {
	t.Helper()
	c := g.CSR()
	if g.NumLabels() == 0 || g.NumNodes() == 0 {
		if c != nil {
			t.Fatalf("CSR() = non-nil for empty graph")
		}
		return
	}
	if c == nil {
		t.Fatalf("CSR() = nil for %d nodes, %d labels", g.NumNodes(), g.NumLabels())
	}
	if c.Version() != g.Version() || c.NumNodes() != g.NumNodes() {
		t.Fatalf("CSR at version %d over %d nodes, graph at %d over %d", c.Version(), c.NumNodes(), g.Version(), g.NumNodes())
	}
	rebuilt := g.Clone().BuildCSR()
	rebased := g.Clone().Rebase()
	equal := func(dir string, n, l int, runs ...[]uint32) int {
		for _, r := range runs[1:] {
			if !slices.Equal(runs[0], r) {
				t.Fatalf("node %d label %d: %s runs (graph's CSR, rebuilt, rebased, edge list) = %v", n, l, dir, runs)
			}
		}
		return len(runs[0])
	}
	for n := 0; n < g.NumNodes(); n++ {
		id := NodeID(n)
		outDeg, inDeg := 0, 0
		for l := 0; l < g.NumLabels(); l++ {
			lbl := Label(l)
			outDeg += equal("out", n, l, c.OutNeighbors(id, lbl), rebuilt.OutNeighbors(id, lbl), rebased.OutNeighbors(id, lbl), legacyOutNeighbors(g, id, lbl))
			inDeg += equal("in", n, l, c.InNeighbors(id, lbl), rebuilt.InNeighbors(id, lbl), rebased.InNeighbors(id, lbl), legacyInNeighbors(g, id, lbl))
		}
		if d := c.OutDegree(id); d != outDeg {
			t.Fatalf("node %d: CSR OutDegree %d, want %d", n, d, outDeg)
		}
		if d := c.InDegree(id); d != inDeg {
			t.Fatalf("node %d: CSR InDegree %d, want %d", n, d, inDeg)
		}
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
	checkCSRAgainstLegacy(t, g)

	// Removal tombstones an edge; the next CSR must skip it.
	id := g.FindEdge(a, c, g.Label("friend"))
	if err := g.RemoveEdge(id); err != nil {
		t.Fatal(err)
	}
	checkCSRAgainstLegacy(t, g)

	// A rebase renumbers edges but not adjacency.
	g.Rebase()
	checkCSRAgainstLegacy(t, g)
}

func TestCSREmptyAndLabelFree(t *testing.T) {
	g := New()
	if g.CSR() != nil {
		t.Fatal("CSR() over empty graph should be nil")
	}
	g.MustAddNode("a", nil)
	if g.CSR() != nil {
		t.Fatal("CSR() over label-free graph should be nil")
	}
	if d := g.OutDegree(0); d != 0 {
		t.Fatalf("OutDegree = %d, want 0", d)
	}
}

// TestCSRCachingAndStaleness pins what replaced staleness: a cached CSR is
// patched by every mutation and stays the graph's fresh CSR, the same
// object, until the overlay bound or a new label drops it, and a rebase
// replaces it with one over the new base.
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
	c1 := g.CSR()
	if c2 := g.CSR(); c2 != c1 {
		t.Fatal("second CSR() call should return the cached view")
	}
	stillFresh := func(after string) {
		t.Helper()
		if got := g.FreshCSR(); got != c1 {
			t.Fatalf("FreshCSR() = %p after %s, want the CSR built before it (%p)", got, after, c1)
		}
		checkCSRAgainstLegacy(t, g)
	}
	stillFresh("the build")
	id := g.MustAddEdge(3, 9, "friend")
	stillFresh("an edge addition")
	if err := g.RemoveEdge(id); err != nil {
		t.Fatal(err)
	}
	stillFresh("a removal from a patched cell")
	if err := g.RemoveEdge(g.FindEdge(10, 11, g.Label("friend"))); err != nil {
		t.Fatal(err)
	}
	stillFresh("a removal from a slab cell")
	late := g.MustAddNode("late", nil)
	g.MustAddEdge(late, 0, "colleague")
	g.MustAddEdge(1, late, "friend")
	stillFresh("a node addition")
	if !g.NeedsRebase() {
		t.Fatal("a CSR built over a private part must ask for a rebase")
	}
	if c := g.Rebase(); c == c1 || g.FreshCSR() != c || g.NeedsRebase() || g.NumTombstones() != 0 {
		t.Fatal("Rebase should lay a new CSR over a tombstone-free base")
	}
	c1 = g.FreshCSR()
	g.MustAddEdge(4, 40, "friend")
	stillFresh("an edge addition after the rebase")
	if g.NeedsRebase() {
		t.Fatal("a patched CSR over the base should not ask for a rebase")
	}

	// Interning a label changes the cell layout, whether or not an edge
	// follows: the old CSR must not serve the new label's lookups.
	g.Label("parent")
	if g.FreshCSR() != nil {
		t.Fatal("FreshCSR should be nil once the label table has grown")
	}
	g.MustAddEdge(2, 7, "parent")
	if g.FreshCSR() != nil || !g.NeedsRebase() {
		t.Fatal("an edge under a new label cannot be patched into the old layout")
	}
	c2 := g.CSR()
	if c2 == nil || c2 == c1 {
		t.Fatal("CSR() should have built a new view")
	}
	checkCSRAgainstLegacy(t, g)

	// Patches beyond the overlay bound drop the CSR; the next CSR() call
	// builds one whose slabs include them.
	mutations := 0
	for i := 0; g.FreshCSR() != nil; i++ {
		if mutations = i; i > 2*(g.NumNodes()+g.NumEdges()) {
			t.Fatal("overlay bound never crossed")
		}
		g.MustAddEdge(NodeID(i%nodes), NodeID((i+9+i/nodes)%nodes), "parent")
	}
	if mutations < overlayFloor/4 {
		t.Fatalf("CSR dropped after only %d mutations", mutations)
	}
	if c3 := g.CSR(); c3 == nil || c3 == c2 {
		t.Fatal("CSR() should rebuild after the overlay bound was crossed")
	}
	checkCSRAgainstLegacy(t, g)
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
	// Degrees of a never-indexed graph (scan) and of an indexed one
	// (offsets) must agree.
	type deg struct{ out, in int }
	want := make([]deg, nodes)
	for i := range want {
		want[i] = deg{g.OutDegree(NodeID(i)), g.InDegree(NodeID(i))}
	}
	if g.CSR() == nil {
		t.Fatal("CSR build failed")
	}
	for i := range want {
		if got := (deg{g.OutDegree(NodeID(i)), g.InDegree(NodeID(i))}); got != want[i] {
			t.Fatalf("node %d: CSR degrees %v, want %v", i, got, want[i])
		}
	}
	st := g.Stats()
	maxOut, maxIn := 0, 0
	for _, d := range want {
		if d.out > maxOut {
			maxOut = d.out
		}
		if d.in > maxIn {
			maxIn = d.in
		}
	}
	if st.MaxOutDegree != maxOut || st.MaxInDegree != maxIn {
		t.Fatalf("Stats degrees (%d,%d), want (%d,%d)", st.MaxOutDegree, st.MaxInDegree, maxOut, maxIn)
	}
}

// TestCSRVersionAndNodes covers the CSR's identity accessors.
func TestCSRVersionAndNodes(t *testing.T) {
	g := New()
	a := g.MustAddNode("a", nil)
	b := g.MustAddNode("b", nil)
	g.MustAddEdge(a, b, "friend")
	c := g.CSR()
	if c == nil {
		t.Fatal("CSR build failed")
	}
	if c.Version() != g.Version() {
		t.Fatalf("CSR version %d, graph version %d", c.Version(), g.Version())
	}
	if c.NumNodes() != 2 {
		t.Fatalf("CSR NumNodes %d, want 2", c.NumNodes())
	}
}
