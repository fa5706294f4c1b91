package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// edgeKey is the clone-stable identity of a live edge.
type edgeKey struct {
	from, to string
	label    string
}

func liveEdges(t *testing.T, g *Graph) map[edgeKey]float64 {
	t.Helper()
	out := make(map[edgeKey]float64)
	g.Edges(func(e Edge) bool {
		k := edgeKey{g.Node(e.From).Name, g.Node(e.To).Name, g.LabelName(e.Label)}
		if _, dup := out[k]; dup {
			t.Fatalf("duplicate live edge %+v", k)
		}
		out[k] = e.Weight
		return true
	})
	return out
}

// assertSameGraph compares two graphs by clone-stable identity: node names
// with attributes, and the live edge set.
func assertSameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("nodes = %d, want %d", got.NumNodes(), want.NumNodes())
	}
	want.Nodes(func(n Node) bool {
		id, ok := got.NodeByName(n.Name)
		if !ok {
			t.Fatalf("node %q missing", n.Name)
		}
		gn := got.Node(id)
		for _, k := range n.Attrs.Keys() {
			wv, _ := n.Attrs.Get(k)
			gv, ok := gn.Attrs.Get(k)
			if !ok || !gv.Equal(wv) {
				t.Fatalf("node %q attr %q = %v, want %v", n.Name, k, gv, wv)
			}
		}
		return true
	})
	ge, we := liveEdges(t, got), liveEdges(t, want)
	if len(ge) != len(we) {
		t.Fatalf("edges = %d, want %d", len(ge), len(we))
	}
	for k, w := range we {
		gw, ok := ge[k]
		if !ok {
			t.Fatalf("edge %+v missing", k)
		}
		if gw != w {
			t.Fatalf("edge %+v weight = %v, want %v", k, gw, w)
		}
	}
}

// TestDeltaAdvanceEquivalence replays a randomized mutation trace, rebases
// included, and checks that a clone advanced through the delta log — on the
// base it was cloned from, which the rebases leave behind — matches a fresh
// clone.
func TestDeltaAdvanceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New()
	labels := []string{"friend", "colleague", "parent"}
	for i := 0; i < 20; i++ {
		g.MustAddNode(fmt.Sprintf("n%02d", i), Attrs{"age": Int(20 + i)})
	}
	mutate := func() {
		switch rng.Intn(5) {
		case 0:
			name := fmt.Sprintf("n%02d", g.NumNodes())
			g.MustAddNode(name, Attrs{"city": String("paris")})
		case 1, 2:
			from := NodeID(rng.Intn(g.NumNodes()))
			to := NodeID(rng.Intn(g.NumNodes()))
			if from != to {
				_, _ = g.AddWeightedEdge(from, to, labels[rng.Intn(len(labels))], float64(rng.Intn(10)))
			}
		case 3:
			// Remove a random live edge, if any.
			var victim EdgeID = InvalidEdge
			n := 0
			g.Edges(func(e Edge) bool {
				n++
				if rng.Intn(n) == 0 {
					victim = e.ID
				}
				return true
			})
			if victim != InvalidEdge {
				if err := g.RemoveEdge(victim); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			g.Rebase()
		}
	}
	for i := 0; i < 50; i++ {
		mutate()
	}
	clone := g.Clone()
	base := g.Version()
	for i := 0; i < 200; i++ {
		mutate()
	}
	deltas, ok := g.ChangesSince(base)
	if !ok {
		t.Fatalf("ChangesSince(%d) window lost after %d mutations", base, 200)
	}
	for i, d := range deltas {
		if err := clone.Apply(d); err != nil {
			t.Fatalf("apply delta %d (%s): %v", i, d.Op, err)
		}
	}
	assertSameGraph(t, clone, g.Clone())
}

func TestChangesSinceWindow(t *testing.T) {
	g := New()
	g.SetDeltaLogLimit(8)
	for i := 0; i < 40; i++ {
		g.MustAddNode(fmt.Sprintf("w%02d", i), nil)
	}
	if _, ok := g.ChangesSince(0); ok {
		t.Fatal("window should have trimmed version 0")
	}
	if _, ok := g.ChangesSince(g.Version() + 1); ok {
		t.Fatal("future version must not be servable")
	}
	deltas, ok := g.ChangesSince(g.Version() - 4)
	if !ok || len(deltas) != 4 {
		t.Fatalf("recent window = (%d, %v), want (4, true)", len(deltas), ok)
	}
	if deltas, ok = g.ChangesSince(g.Version()); !ok || len(deltas) != 0 {
		t.Fatalf("current version = (%d, %v), want (0, true)", len(deltas), ok)
	}
}

func TestSetDeltaLogLimitDisable(t *testing.T) {
	g := New()
	g.SetDeltaLogLimit(-1)
	a := g.MustAddNode("a", nil)
	b := g.MustAddNode("b", nil)
	base := g.Version()
	g.MustAddEdge(a, b, "friend")
	if _, ok := g.ChangesSince(base); ok {
		t.Fatal("disabled log must not serve past versions")
	}
	if _, ok := g.ChangesSince(g.Version()); !ok {
		t.Fatal("current version is always servable")
	}
}

// TestCompactTombstones pins where tombstones go: a rebase drops them,
// renumbering the surviving edges densely without a version bump, and leaves
// the base a clone still reads untouched.
func TestCompactTombstones(t *testing.T) {
	g := New()
	for i := 0; i < 10; i++ {
		g.MustAddNode(fmt.Sprintf("c%02d", i), nil)
	}
	var ids []EdgeID
	for i := 0; i < 9; i++ {
		ids = append(ids, g.MustAddEdge(NodeID(i), NodeID(i+1), "friend"))
	}
	g.Rebase()
	clone := g.Clone()
	base := g.Version()
	for i := 0; i < 6; i++ {
		if err := g.RemoveEdge(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.NumTombstones(); got != 6 {
		t.Fatalf("tombstones = %d, want 6", got)
	}
	v := g.Version()
	g.Rebase()
	if g.NumTombstones() != 0 || g.NumEdges() != 3 || len(g.b.edges) != 3 {
		t.Fatalf("after rebase: %d tombstones, %d edges in a base of %d", g.NumTombstones(), g.NumEdges(), len(g.b.edges))
	}
	if g.Version() != v {
		t.Fatalf("a rebase changes no relationship, but moved the version %d -> %d", v, g.Version())
	}
	if clone.Base() == g.Base() || clone.NumEdges() != 9 {
		t.Fatalf("the clone should keep its base and its 9 edges, has %d", clone.NumEdges())
	}
	// Edge IDs are dense again and adjacency is consistent.
	seen := 0
	g.Edges(func(e Edge) bool {
		if int(e.ID) != seen {
			t.Fatalf("edge ID %d at position %d", e.ID, seen)
		}
		if g.FindEdge(e.From, e.To, e.Label) != e.ID {
			t.Fatalf("adjacency lost edge %d", e.ID)
		}
		seen++
		return true
	})
	// A clone advanced through the log matches.
	deltas, ok := g.ChangesSince(base)
	if !ok {
		t.Fatal("window lost")
	}
	for _, d := range deltas {
		if err := clone.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	assertSameGraph(t, clone, g)
}

// TestRebaseRenumbersWeights is TestCompactTombstones with weights: edges of
// the base and of the private part, weighted and not, some removed, keep
// their weights under the IDs a rebase gives them, while a clone taken
// before the rebase still reads every old ID's weight from the old base.
func TestRebaseRenumbersWeights(t *testing.T) {
	g := New()
	for i := 0; i < 10; i++ {
		g.MustAddNode(fmt.Sprintf("w%02d", i), nil)
	}
	want := map[edgeRec]float64{}
	add := func(from, to NodeID, label string, w float64) EdgeID {
		id, err := g.AddWeightedEdge(from, to, label, w)
		if err != nil {
			t.Fatal(err)
		}
		want[*g.rec(id)] = w
		return id
	}
	var ids []EdgeID
	for i := 0; i < 9; i++ {
		ids = append(ids, add(NodeID(i), NodeID(i+1), "friend", float64(i%3)/4))
	}
	g.Rebase()
	for i := 0; i < 4; i++ {
		ids = append(ids, add(NodeID(i+1), NodeID(i), "parent", float64(i+1)))
	}
	for i := 0; i < len(ids); i += 2 {
		delete(want, *g.rec(ids[i]))
		if err := g.RemoveEdge(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	clone := g.Clone()
	g.Rebase()
	if len(g.b.weights) != len(g.b.edges) || g.NumEdges() != len(want) {
		t.Fatalf("after rebase: %d weights for %d edges, %d live, want %d", len(g.b.weights), len(g.b.edges), g.NumEdges(), len(want))
	}
	seen := 0
	g.Edges(func(e Edge) bool {
		if int(e.ID) != seen {
			t.Fatalf("edge ID %d at position %d", e.ID, seen)
		}
		if w, ok := want[edgeRec{From: e.From, To: e.To, Label: e.Label}]; !ok || g.Edge(e.ID).Weight != w {
			t.Fatalf("edge %d (%s) weighs %v after the rebase, want %v", e.ID, g.EdgeString(e), g.Edge(e.ID).Weight, w)
		}
		seen++
		return true
	})
	// The clone reads its IDs as they were, removed edges included.
	for i, id := range ids {
		w := float64(i%3) / 4
		if i >= 9 {
			w = float64(i - 8)
		}
		if got := clone.Edge(id).Weight; got != w {
			t.Fatalf("the clone's edge %d weighs %v, want %v", id, got, w)
		}
		if clone.EdgeAlive(id) != (i%2 == 1) {
			t.Fatalf("the clone's edge %d: alive %v", id, clone.EdgeAlive(id))
		}
	}
}
