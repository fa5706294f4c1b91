package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// assertIdentical asserts that got and want are the same graph down to
// its IDs: nodes, edges with weights and labels in ID order, every node's
// edge lists in order, every CSR run, Stats and the version.
func assertIdentical(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.Version() != want.Version() {
		t.Fatalf("version %d, want %d", got.Version(), want.Version())
	}
	if !slices.Equal(got.Labels(), want.Labels()) {
		t.Fatalf("labels %v, want %v", got.Labels(), want.Labels())
	}
	var gn, wn []Node
	got.Nodes(func(n Node) bool { gn = append(gn, n); return true })
	want.Nodes(func(n Node) bool { wn = append(wn, n); return true })
	if !reflect.DeepEqual(gn, wn) {
		t.Fatalf("nodes %v, want %v", gn, wn)
	}
	for _, n := range wn {
		if id, ok := got.NodeByName(n.Name); !ok || id != n.ID {
			t.Fatalf("NodeByName(%q) = %d, %v, want %d", n.Name, id, ok, n.ID)
		}
	}
	collect := func(each func(func(Edge) bool)) []Edge {
		var es []Edge
		each(func(e Edge) bool { es = append(es, e); return true })
		return es
	}
	if ge, we := collect(got.Edges), collect(want.Edges); !reflect.DeepEqual(ge, we) {
		t.Fatalf("edges %v, want %v", ge, we)
	}
	gc, wc := got.CSR(), want.CSR()
	if (gc == nil) != (wc == nil) {
		t.Fatalf("CSR %v, want %v", gc != nil, wc != nil)
	}
	for i := range wn {
		n := NodeID(i)
		for _, dir := range [...]func(*Graph) func(func(Edge) bool){
			func(g *Graph) func(func(Edge) bool) { return func(fn func(Edge) bool) { g.OutEdges(n, fn) } },
			func(g *Graph) func(func(Edge) bool) { return func(fn func(Edge) bool) { g.InEdges(n, fn) } },
		} {
			if ge, we := collect(dir(got)), collect(dir(want)); !reflect.DeepEqual(ge, we) {
				t.Fatalf("node %d: edge list %v, want %v", n, ge, we)
			}
		}
		for l := 0; gc != nil && l < want.NumLabels(); l++ {
			lbl := Label(l)
			if g, w := gc.OutNeighbors(n, lbl), wc.OutNeighbors(n, lbl); !slices.Equal(g, w) {
				t.Fatalf("node %d label %d: out run %v, want %v", n, l, g, w)
			}
			if g, w := gc.InNeighbors(n, lbl), wc.InNeighbors(n, lbl); !slices.Equal(g, w) {
				t.Fatalf("node %d label %d: in run %v, want %v", n, l, g, w)
			}
		}
	}
	if gs, ws := got.Stats(), want.Stats(); gs != ws {
		t.Fatalf("stats %+v, want %+v", gs, ws)
	}
}

// TestLoaderMatchesIncrementalBuild feeds random graphs — attributes,
// weights and labels included — through a Loader and through
// AddNode/AddWeightedEdge on a new Graph, and checks that the two are
// identical, that the loaded one comes back laid out with an empty delta
// log, and that they stay identical under one random sequence of edge
// additions, removals, clones and rebases applied to both.
func TestLoaderMatchesIncrementalBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	labels := []string{"friend", "colleague", "parent", "follows", "blocks"}
	for trial := range 60 {
		l, want := NewLoader(), New()
		nodes := 1 + rng.Intn(40)
		for i := range nodes {
			if trial%2 == 1 && i == nodes/2 {
				l.Grow(rng.Intn(40), rng.Intn(200))
			}
			var attrs Attrs
			if rng.Intn(3) == 0 {
				attrs = Attrs{"age": Int(rng.Intn(80))}
			}
			name := fmt.Sprintf("n%d", i)
			if _, err := l.AddNode(name, attrs); err != nil {
				t.Fatal(err)
			}
			want.MustAddNode(name, attrs)
		}
		randomEdge := func(nl int) (NodeID, NodeID, string, float64) {
			w := 0.0
			if trial%3 == 0 && rng.Intn(2) == 0 {
				w = float64(1+rng.Intn(8)) / 8
			}
			return NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes)), labels[rng.Intn(nl)], w
		}
		nl := 1 + rng.Intn(len(labels)-1)
		for range rng.Intn(nodes * 6) {
			from, to, label, w := randomEdge(nl)
			if from == to || want.HasEdge(from, to, label) {
				continue
			}
			if _, err := want.AddWeightedEdge(from, to, label, w); err != nil {
				t.Fatal(err)
			}
			if err := l.AddEdge(from, to, label, w); err != nil {
				t.Fatal(err)
			}
		}
		got, err := l.Graph()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.deltaBase != got.Version() || len(got.deltas) != 0 {
			t.Fatalf("trial %d: loaded graph logs %d deltas from %d at version %d", trial, len(got.deltas), got.deltaBase, got.Version())
		}
		if got.NumLabels() > 0 && got.NeedsRebase() {
			t.Fatalf("trial %d: loaded graph needs a rebase", trial)
		}
		assertIdentical(t, got, want)

		// One more label than the build used, so that additions grow the
		// label table too.
		built := want.Version()
		for op := range 40 {
			switch r := rng.Intn(10); {
			case r < 5:
				from, to, label, w := randomEdge(nl + 1)
				gid, gerr := got.AddWeightedEdge(from, to, label, w)
				wid, werr := want.AddWeightedEdge(from, to, label, w)
				if gid != wid || fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("trial %d op %d: AddWeightedEdge = %d, %v, want %d, %v", trial, op, gid, gerr, wid, werr)
				}
			case r < 8:
				var live []EdgeID
				want.Edges(func(e Edge) bool { live = append(live, e.ID); return true })
				if len(live) == 0 {
					continue
				}
				id := live[rng.Intn(len(live))]
				if gerr, werr := got.RemoveEdge(id), want.RemoveEdge(id); gerr != nil || werr != nil {
					t.Fatalf("trial %d op %d: RemoveEdge(%d) = %v, %v", trial, op, id, gerr, werr)
				}
			case r < 9:
				got, want = got.Clone(), want.Clone()
				built = want.Version()
			default:
				got.Rebase()
				want.Rebase()
			}
			assertIdentical(t, got, want)
		}
		gd, gok := got.ChangesSince(built)
		wd, wok := want.ChangesSince(built)
		if !gok || !wok || !reflect.DeepEqual(gd, wd) {
			t.Fatalf("trial %d: ChangesSince(%d) = %v %v, want %v %v", trial, built, gd, gok, wd, wok)
		}
	}
}

// TestLoaderRejectsAsBuildDoes checks that a Loader rejects the first bad
// input of a random build with the error AddNode or AddWeightedEdge gives
// it: an endpoint out of range or a self-loop when it is added, and a
// repeated name or the first of several duplicate edges when Graph is
// called.
func TestLoaderRejectsAsBuildDoes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labels := []string{"friend", "colleague", "parent"}
	for trial := range 200 {
		l, want := NewLoader(), New()
		nodes := 2 + rng.Intn(12)
		for i := range nodes {
			name := fmt.Sprintf("n%d", i)
			l.AddNode(name, nil)
			want.MustAddNode(name, nil)
		}
		kind := trial % 4
		if kind == 0 {
			name := fmt.Sprintf("n%d", rng.Intn(nodes))
			if _, err := l.AddNode(name, nil); err != nil {
				t.Fatalf("trial %d: AddNode(%q) = %v; Graph reports a repeat", trial, name, err)
			}
			_, werr := want.AddNode(name, nil)
			l.AddEdge(0, 1, "friend", 0)
			if _, gerr := l.Graph(); werr == nil || fmt.Sprint(gerr) != werr.Error() {
				t.Fatalf("trial %d: Graph() = %v, want %v", trial, gerr, werr)
			}
			continue
		}
		type edge struct {
			from, to NodeID
			label    string
		}
		var added []edge
		bad := rng.Intn(3 * nodes)
		var werr error
		for i := 0; i <= bad+10 && (werr == nil || kind == 3); i++ {
			e := edge{NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes)), labels[rng.Intn(len(labels))]}
			switch {
			case i < bad:
				if e.from == e.to || want.HasEdge(e.from, e.to, e.label) {
					continue
				}
			case i == bad && kind == 1:
				e.to = NodeID(nodes + rng.Intn(3))
			case i == bad && kind == 2:
				e.to = e.from
			case kind == 3 && (i == bad || rng.Intn(2) == 0):
				// The first duplicate, then more of them among other edges.
				if len(added) == 0 {
					continue
				}
				e = added[rng.Intn(len(added))]
			case e.from == e.to:
				continue
			}
			if werr == nil {
				_, werr = want.AddWeightedEdge(e.from, e.to, e.label, float64(i))
			}
			gerr := l.AddEdge(e.from, e.to, e.label, float64(i))
			if kind == 3 && gerr != nil || kind != 3 && fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("trial %d: AddEdge(%v) = %v, the build's %v", trial, e, gerr, werr)
			}
			added = append(added, e)
		}
		if kind != 3 {
			continue
		}
		if _, gerr := l.Graph(); fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("trial %d: Graph() = %v, want %v", trial, gerr, werr)
		}
	}
}

// TestBaseTablesTight checks that a base holds no append slack: Rebase
// copies an offset, attribute or weight table with slack that it would
// otherwise move into the base, on an incremental build and on a Loader's,
// and moves a table a Loader was grown to fit exactly. The names column is
// exactly the names' bytes, the index the smallest power of two of at
// least 2n slots, and the edge table slabs of one entry per edge (two
// out), one position per edge and a directory entry per 64 edges plus one.
func TestBaseTablesTight(t *testing.T) {
	const nodes = 100
	tight := func(name string, g *Graph) {
		t.Helper()
		b := g.b
		if cap(b.off) != len(b.off) || cap(b.attrs) != len(b.attrs) || cap(b.index) != len(b.index) || cap(b.weights) != len(b.weights) {
			t.Fatalf("%s: base tables %d/%d offsets, %d/%d attrs, %d/%d index, %d/%d weights (len/cap)", name,
				len(b.off), cap(b.off), len(b.attrs), cap(b.attrs), len(b.index), cap(b.index), len(b.weights), cap(b.weights))
		}
		if len(b.off) != nodes+1 || len(b.attrs) != nodes || len(b.index) != 256 || b.numEdges() != nodes-1 || len(b.weights) != nodes-1 {
			t.Fatalf("%s: base holds %d offsets, %d attrs, %d index slots, %d edges, %d weights", name,
				len(b.off), len(b.attrs), len(b.index), b.numEdges(), len(b.weights))
		}
		for _, s := range [][]uint32{b.out.off, b.out.nbr, b.in.off, b.in.nbr, b.pos, b.dir} {
			if cap(s) != len(s) {
				t.Fatalf("%s: a slab or column of %d/%d entries (len/cap)", name, len(s), cap(s))
			}
		}
		if cap(b.out.ids) != len(b.out.ids) || len(b.out.nbr) != nodes-1 || len(b.out.ids) != nodes-1 || len(b.in.nbr) != nodes-1 ||
			len(b.out.off) != nodes+1 || len(b.in.off) != nodes+1 || len(b.dir) != (nodes-1+63)/64+1 {
			t.Fatalf("%s: slabs of %d offsets, %d targets and %d IDs out, %d offsets and %d sources in; %d directory entries", name,
				len(b.out.off), len(b.out.nbr), len(b.out.ids), len(b.in.off), len(b.in.nbr), len(b.dir))
		}
		var bytes int
		for i := range nodes {
			bytes += len(fmt.Sprintf("n%d", i))
		}
		if len(b.names) != bytes {
			t.Fatalf("%s: names column of %d bytes, want %d", name, len(b.names), bytes)
		}
	}
	// Attributes start at node 3, so that the column is allocated late.
	attrs := func(i int) Attrs {
		if i < 3 {
			return nil
		}
		return Attrs{"age": Int(i)}
	}
	build := func(addNode func(string, Attrs), addEdge func(from, to NodeID, w float64)) {
		for i := range nodes {
			addNode(fmt.Sprintf("n%d", i), attrs(i))
		}
		for i := range nodes - 1 {
			addEdge(NodeID(i), NodeID(i+1), float64(i))
		}
	}
	g := New()
	build(func(name string, a Attrs) { g.MustAddNode(name, a) },
		func(from, to NodeID, w float64) { g.AddWeightedEdge(from, to, "friend", w) })
	g.Rebase()
	tight("incremental", g)

	for _, grow := range []bool{false, true} {
		l := NewLoader()
		if grow {
			l.Grow(nodes, nodes-1)
		}
		build(func(name string, a Attrs) { l.AddNode(name, a) },
			func(from, to NodeID, w float64) { l.AddEdge(from, to, "friend", w) })
		off, attrs := &l.off[0], &l.attrs[0]
		g, err := l.Graph()
		if err != nil {
			t.Fatal(err)
		}
		tight(fmt.Sprintf("loader grown %v", grow), g)
		if moved := &g.b.off[0] == off && &g.b.attrs[0] == attrs; moved != grow {
			t.Fatalf("loader grown %v: tables moved %v", grow, moved)
		}
	}
}
