package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// edgeRef is the reference edge table: every edge ever added since the
// last rebase, edge id at edges[id], with its label by name, and whether it
// was removed.
type edgeRef struct {
	edges []Edge
	names []string
	dead  []bool
}

// rebase drops the removed edges and renumbers the rest densely, as Rebase
// does.
func (r *edgeRef) rebase() {
	next := &edgeRef{}
	for id, e := range r.edges {
		if !r.dead[id] {
			e.ID = EdgeID(len(next.edges))
			next.edges, next.names, next.dead = append(next.edges, e), append(next.names, r.names[id]), append(next.dead, false)
		}
	}
	*r = *next
}

// live returns the live edges of r in ID order.
func (r *edgeRef) live() []Edge {
	var es []Edge
	for id, e := range r.edges {
		if !r.dead[id] {
			es = append(es, e)
		}
	}
	return es
}

// checkEdgeTable asserts that g's edges read as ref's: Edge for every ID,
// live and removed, with its label's name; EdgeAlive and NumEdges; Edges in
// ID order; every node's OutEdges, InEdges and Labeled*Edges; FindEdge of
// every live edge, and of every removed one whose triple has no live edge.
func checkEdgeTable(t *testing.T, what string, g *Graph, ref *edgeRef) {
	t.Helper()
	for id, want := range ref.edges {
		got := g.Edge(EdgeID(id))
		if got != want || g.LabelName(got.Label) != ref.names[id] {
			t.Fatalf("%s: Edge(%d) = %+v (%s), want %+v (%s)", what, id, got, g.LabelName(got.Label), want, ref.names[id])
		}
		if g.EdgeAlive(EdgeID(id)) == ref.dead[id] {
			t.Fatalf("%s: EdgeAlive(%d) = %v, removed %v", what, id, !ref.dead[id], ref.dead[id])
		}
	}
	if g.EdgeAlive(EdgeID(len(ref.edges))) {
		t.Fatalf("%s: EdgeAlive(%d) past the last edge", what, len(ref.edges))
	}
	live := ref.live()
	if g.NumEdges() != len(live) {
		t.Fatalf("%s: NumEdges %d, want %d", what, g.NumEdges(), len(live))
	}
	var got []Edge
	g.Edges(func(e Edge) bool { got = append(got, e); return true })
	if !slices.Equal(got, live) {
		t.Fatalf("%s: Edges %v, want %v", what, got, live)
	}
	out, in := make([][]Edge, g.NumNodes()), make([][]Edge, g.NumNodes())
	for _, e := range live {
		out[e.From], in[e.To] = append(out[e.From], e), append(in[e.To], e)
		if id := g.FindEdge(e.From, e.To, e.Label); id != e.ID {
			t.Fatalf("%s: FindEdge(%d, %d, %d) = %d, want %d", what, e.From, e.To, e.Label, id, e.ID)
		}
	}
	for id, e := range ref.edges {
		if ref.dead[id] && !slices.ContainsFunc(live, func(l Edge) bool { return l.From == e.From && l.To == e.To && l.Label == e.Label }) {
			if got := g.FindEdge(e.From, e.To, e.Label); got != InvalidEdge {
				t.Fatalf("%s: FindEdge of removed edge %d = %d", what, id, got)
			}
		}
	}
	collect := func(each func(func(Edge) bool)) []Edge {
		var es []Edge
		each(func(e Edge) bool { es = append(es, e); return true })
		return es
	}
	for n := NodeID(0); int(n) < g.NumNodes(); n++ {
		if got := collect(func(fn func(Edge) bool) { g.OutEdges(n, fn) }); !slices.Equal(got, out[n]) {
			t.Fatalf("%s: OutEdges(%d) = %v, want %v", what, n, got, out[n])
		}
		if got := collect(func(fn func(Edge) bool) { g.InEdges(n, fn) }); !slices.Equal(got, in[n]) {
			t.Fatalf("%s: InEdges(%d) = %v, want %v", what, n, got, in[n])
		}
		for l := Label(0); int(l) < g.NumLabels(); l++ {
			if got := collect(func(fn func(Edge) bool) { g.LabeledOutEdges(n, l, fn) }); !reflect.DeepEqual(got, labeled(out[n], l)) {
				t.Fatalf("%s: LabeledOutEdges(%d, %d) = %v, want %v", what, n, l, got, labeled(out[n], l))
			}
			if got := collect(func(fn func(Edge) bool) { g.LabeledInEdges(n, l, fn) }); !reflect.DeepEqual(got, labeled(in[n], l)) {
				t.Fatalf("%s: LabeledInEdges(%d, %d) = %v, want %v", what, n, l, got, labeled(in[n], l))
			}
		}
	}
}

// TestEdgeTableMatchesReference drives random AddWeightedEdge and
// RemoveEdge calls — a new label arriving mid-stream, some interned alone,
// and nodes added past the base — with Clones, repeated Rebases and
// BuildCSR over a private part, and checks the graph's edges against a
// plain table of Edges after every call (see checkEdgeTable). Bases reach a
// few hundred edges, so that a lookup crosses directory entries. It then
// loads each trial's nodes and live edges with a Loader, whose graph must
// read as the rebased reference.
func TestEdgeTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	labels := []string{"friend", "colleague", "parent", "follows", "mentors"}
	for trial := range 40 {
		g := New()
		ref := &edgeRef{}
		nodes := 4 + rng.Intn(36)
		for i := range nodes {
			g.MustAddNode(fmt.Sprintf("n%d", i), nil)
		}
		// The labels in use grow through the trial, each new one laying the
		// CSR out again.
		inUse := 1 + rng.Intn(2)
		for op := range 100 + rng.Intn(500) {
			what := fmt.Sprintf("trial %d op %d", trial, op)
			switch r := rng.Intn(100); {
			case r < 55:
				from, to := NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes))
				name := labels[rng.Intn(inUse)]
				weight := float64(rng.Intn(3)) / 2
				id, err := g.AddWeightedEdge(from, to, name, weight)
				l, _ := g.LookupLabel(name)
				dup := slices.ContainsFunc(ref.live(), func(e Edge) bool { return e.From == from && e.To == to && e.Label == l })
				if wantErr := from == to || dup; (err != nil) != wantErr {
					t.Fatalf("%s: AddWeightedEdge(%d, %d, %s) = %d, %v", what, from, to, name, id, err)
				}
				if err == nil {
					if int(id) != len(ref.edges) {
						t.Fatalf("%s: AddWeightedEdge gave ID %d, want %d", what, id, len(ref.edges))
					}
					ref.edges = append(ref.edges, Edge{ID: id, From: from, To: to, Label: l, Weight: weight})
					ref.names, ref.dead = append(ref.names, name), append(ref.dead, false)
				}
			case r < 75:
				live := ref.live()
				if len(live) == 0 {
					continue
				}
				id := live[rng.Intn(len(live))].ID
				if err := g.RemoveEdge(id); err != nil {
					t.Fatalf("%s: RemoveEdge(%d): %v", what, id, err)
				}
				ref.dead[id] = true
				if g.RemoveEdge(id) == nil {
					t.Fatalf("%s: a second RemoveEdge(%d) succeeded", what, id)
				}
			case r < 76:
				if nodes < 48 {
					g.MustAddNode(fmt.Sprintf("n%d", nodes), nil)
					nodes++
				}
			case r < 78:
				if inUse < len(labels) {
					inUse++
				}
				if rng.Intn(2) == 0 {
					g.Label(labels[inUse-1])
				}
			case r < 84:
				c := g.Clone()
				if rng.Intn(2) == 0 {
					// The original must not see what the clone changes.
					if live := ref.live(); len(live) > 0 {
						c.RemoveEdge(live[0].ID)
					}
					c.Rebase()
					checkEdgeTable(t, what+" beside its clone", g, ref)
				} else {
					g = c
				}
			case r < 92:
				g.Rebase()
				ref.rebase()
				if g.NeedsRebase() {
					t.Fatalf("%s: a graph asks for a rebase right after one", what)
				}
			default:
				g.BuildCSR()
			}
			checkEdgeTable(t, what, g, ref)
		}

		l := NewLoader()
		for i := range nodes {
			l.AddNode(fmt.Sprintf("n%d", i), nil)
		}
		ref.rebase()
		for id, e := range ref.edges {
			if err := l.AddEdge(e.From, e.To, ref.names[id], e.Weight); err != nil {
				t.Fatal(err)
			}
		}
		loaded, err := l.Graph()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for id := range ref.edges {
			ref.edges[id].Label, _ = loaded.LookupLabel(ref.names[id])
		}
		checkEdgeTable(t, fmt.Sprintf("trial %d loaded", trial), loaded, ref)
	}
}
