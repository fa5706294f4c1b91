package search

import (
	"math/rand"
	"strings"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/paperfix"
	"reachac/internal/pathexpr"
)

// bothWays answers one query from each endpoint, whichever Reachable would
// pick: forward from the owner and reversed from the requester.
func bothWays(t *testing.T, e *Engine, owner, requester graph.NodeID, p *pathexpr.Path) (fwd, rev bool) {
	t.Helper()
	pl, err := e.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	return e.reach(owner, requester, &pl.compiled), e.reverse(owner, requester, pl)
}

// TestReachableReverseAgreesWithForward: on random graphs with predicates,
// the search from either endpoint answers every query the same, and
// Reachable, which picks one, agrees with both.
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
					got, err := e.Reachable(oid, rid, p)
					if err != nil {
						t.Fatal(err)
					}
					fwd, rev := bothWays(t, e, oid, rid, p)
					if fwd != rev || got != fwd {
						t.Fatalf("trial %d: (%s, %d, %d): forward %v, reversed %v, Reachable %v",
							trial, expr, o, r, fwd, rev, got)
					}
				}
			}
		}
	}
}

// TestReachableReverseInvalidNodeErrorMatchesForward: an invalid requester,
// where a reversed search would start, is the same error as an invalid
// owner, returned before the endpoint costs read either node.
func TestReachableReverseInvalidNodeErrorMatchesForward(t *testing.T) {
	e := New(paperfix.Graph())
	_, ownerErr := e.Reachable(999, 0, paperfix.Q1())
	_, reqErr := e.Reachable(0, 999, paperfix.Q1())
	if ownerErr == nil || reqErr == nil || !strings.HasPrefix(reqErr.Error(), "search: invalid node") ||
		!strings.HasPrefix(ownerErr.Error(), "search: invalid node") {
		t.Fatalf("invalid endpoints: owner %v, requester %v", ownerErr, reqErr)
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
	costs := func(expr string) (fwd, rev int) {
		pl, err := e.Plan(pathexpr.MustParse(expr))
		if err != nil {
			t.Fatal(err)
		}
		return e.RouteCostsPlan(a, b, pl)
	}
	if g.FreshCSR() != nil {
		t.Fatal("fixture graph already indexed")
	}
	if fwd, rev := costs("friend+[1]"); fwd != 2 || rev != 1 {
		t.Fatalf("counts = (%d, %d), want (2, 1)", fwd, rev)
	}
	csr := g.FreshCSR()
	if csr == nil {
		t.Fatal("first query did not index the graph")
	}
	g.MustAddEdge(c, b, "friend")
	if err := g.RemoveEdge(g.FindEdge(a, c, g.Label("friend"))); err != nil {
		t.Fatal(err)
	}
	if fwd, rev := costs("friend+[1]"); fwd != 1 || rev != 2 || g.FreshCSR() != csr {
		t.Fatalf("patched counts = (%d, %d), want (1, 2) off the same CSR", fwd, rev)
	}
	// A label absent from the graph admits no seeds on either side.
	if fwd, rev := costs("ghost+[1]"); fwd != 0 || rev != 0 {
		t.Fatalf("ghost label: (%d, %d), want (0, 0)", fwd, rev)
	}
}
