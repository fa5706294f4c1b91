package search

import (
	"math/rand"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/paperfix"
	"reachac/internal/pathexpr"
)

func TestReachableReverseAgreesWithForward(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	labels := []string{"friend", "colleague", "parent"}
	exprs := []string{
		"friend+[1,2]/colleague+[1]",
		"friend-[2]",
		"friend*[1,2]/parent+[1]",
		"colleague+[1,*]",
		"friend+[1]{age>=18}/parent-[1]",
		"parent+[1]/friend+[1,3]{age<40}",
		"friend+[1]/colleague+[1]{age>=18}",
	}
	for trial := 0; trial < 8; trial++ {
		n := 4 + rng.Intn(12)
		g := graph.New()
		for i := 0; i < n; i++ {
			var attrs graph.Attrs
			if rng.Intn(2) == 0 {
				attrs = graph.Attrs{"age": graph.Int(10 + rng.Intn(50))}
			}
			g.MustAddNode(nameOf(i), attrs)
		}
		for i := 0; i < n*3; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u != v {
				_, _ = g.AddEdge(u, v, labels[rng.Intn(len(labels))])
			}
		}
		e := New(g)
		for _, expr := range exprs {
			p := pathexpr.MustParse(expr)
			for o := 0; o < n; o++ {
				for r := 0; r < n; r++ {
					oid, rid := graph.NodeID(o), graph.NodeID(r)
					want, err := e.Reachable(oid, rid, p)
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.ReachableReverse(oid, rid, p)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("trial %d: ReachableReverse disagrees on (%s, %d, %d): got %v want %v",
							trial, expr, o, r, got, want)
					}
				}
			}
		}
	}
}

func TestReachableReverseInvalidNodeErrorMatchesForward(t *testing.T) {
	g := paperfix.Graph()
	e := New(g)
	_, fwdErr := e.Reachable(999, 0, paperfix.Q1())
	_, revErr := e.ReachableReverse(999, 0, paperfix.Q1())
	if fwdErr == nil || revErr == nil || fwdErr.Error() != revErr.Error() {
		t.Fatalf("error wording differs: fwd=%v rev=%v", fwdErr, revErr)
	}
}

func TestRouteCostsSeedCountsWithoutCSR(t *testing.T) {
	// An engine over a never-indexed graph indexes it on first use, and the
	// counts then follow the graph through patched mutations.
	g := graph.New()
	a := g.MustAddNode("a", nil)
	b := g.MustAddNode("b", nil)
	c := g.MustAddNode("c", nil)
	g.MustAddEdge(a, b, "friend")
	g.MustAddEdge(a, c, "friend")
	g.MustAddEdge(b, a, "friend")
	e := New(g)
	p := pathexpr.MustParse("friend+[1]")
	if g.FreshCSR() != nil {
		t.Fatal("fixture graph already indexed")
	}
	fwd, rev, err := e.RouteCosts(a, b, p)
	if err != nil || fwd != 2 || rev != 1 {
		t.Fatalf("counts = (%d, %d, %v), want (2, 1, nil)", fwd, rev, err)
	}
	csr := g.FreshCSR()
	if csr == nil {
		t.Fatal("first query did not index the graph")
	}
	g.MustAddEdge(c, b, "friend")
	if err := g.RemoveEdge(g.FindEdge(a, c, g.Label("friend"))); err != nil {
		t.Fatal(err)
	}
	fwd, rev, err = e.RouteCosts(a, b, p)
	if err != nil || fwd != 1 || rev != 2 || g.FreshCSR() != csr {
		t.Fatalf("patched counts = (%d, %d, %v), want (1, 2, nil) off the same CSR", fwd, rev, err)
	}
	// A label absent from the graph admits no seeds on either side.
	fwd, rev, err = e.RouteCosts(a, b, pathexpr.MustParse("ghost+[1]"))
	if err != nil || fwd != 0 || rev != 0 {
		t.Fatalf("ghost label: (%d, %d, %v), want (0, 0, nil)", fwd, rev, err)
	}
}

func TestAudienceCachePeek(t *testing.T) {
	g := paperfix.Graph()
	ac := NewAudienceCache(g)
	p := paperfix.Q1()
	owner := node(t, g, paperfix.Names[0])

	// Miss before anything is materialized; Peek never computes.
	if _, ok := ac.Peek(owner, owner, p); ok {
		t.Fatal("Peek hit on an empty cache")
	}
	aud, err := ac.Audience(owner, p)
	if err != nil {
		t.Fatal(err)
	}
	members := map[graph.NodeID]bool{}
	for _, m := range aud {
		members[m] = true
	}
	// After materialization every requester answers from the bitset and
	// agrees with the audience slice (and hence with Reachable).
	for _, name := range paperfix.Names {
		r := node(t, g, name)
		got, ok := ac.Peek(owner, r, p)
		if !ok {
			t.Fatalf("Peek miss for materialized (owner, path) at %s", name)
		}
		if got != members[r] {
			t.Fatalf("Peek(%s) = %v, audience membership %v", name, got, members[r])
		}
	}
	// A different owner or path is a miss, not a wrong answer.
	if _, ok := ac.Peek(owner+1, owner, p); ok && owner+1 != owner {
		if _, err := ac.Audience(owner+1, p); err == nil {
			// owner+1 may be valid; the point is Peek must not fabricate hits
			// for paths never materialized.
			t.Log("peek hit for other owner after its own materialization only")
		}
	}
	if _, ok := ac.Peek(owner, owner, pathexpr.MustParse("colleague+[1]")); ok {
		t.Fatal("Peek hit for a never-materialized path")
	}
	// Invalid nodes are a miss.
	if _, ok := ac.Peek(9999, owner, p); ok {
		t.Fatal("Peek hit for invalid owner")
	}
	if _, ok := ac.Peek(owner, 9999, p); ok {
		t.Fatal("Peek hit for invalid requester")
	}
}

func TestAudienceCachePeekAfterAdvance(t *testing.T) {
	// A dirty (incrementally extended, not re-materialized) entry must still
	// serve correct membership bits through Peek.
	g := graph.New()
	a := g.MustAddNode("a", nil)
	b := g.MustAddNode("b", nil)
	c := g.MustAddNode("c", nil)
	g.MustAddEdge(a, b, "friend")
	ac := NewAudienceCache(g)
	p := pathexpr.MustParse("friend+[1,2]")
	if _, err := ac.Audience(a, p); err != nil {
		t.Fatal(err)
	}
	if got, ok := ac.Peek(a, c, p); !ok || got {
		t.Fatalf("before edge: Peek(c) = (%v, %v), want (false, true)", got, ok)
	}
	v := g.Version()
	g.MustAddEdge(b, c, "friend")
	deltas, ok := g.ChangesSince(v)
	if !ok {
		t.Fatal("delta window lost")
	}
	ac.Advance(deltas)
	if got, ok := ac.Peek(a, c, p); !ok || !got {
		t.Fatalf("after edge: Peek(c) = (%v, %v), want (true, true)", got, ok)
	}
}
