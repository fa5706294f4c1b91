//go:build !race

// Allocation-regression assertions for the flat search hot path. They are
// excluded under the race detector, whose instrumentation perturbs
// allocation behavior; the non-race CI test run enforces them.
package search

import (
	"fmt"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// allocFixture builds a mid-size graph, a parsed path, and a warmed engine:
// the CSR is built and then patched — the way a published snapshot's is —
// around the owner and along the searched cone, leaving most nodes clean,
// and the plan cache and pooled scratch are populated by a few throwaway
// queries.
func allocFixture(t testing.TB) (*Engine, *pathexpr.Path, graph.NodeID, graph.NodeID) {
	t.Helper()
	g := graph.New()
	const n = 200
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = g.MustAddNode(fmt.Sprintf("u%03d", i), nil)
	}
	for i := 0; i < n; i++ {
		g.MustAddEdge(ids[i], ids[(i+1)%n], "friend")
		g.MustAddEdge(ids[i], ids[(i+7)%n], "colleague")
		if i%3 == 0 {
			g.MustAddEdge(ids[i], ids[(i+13)%n], "friend")
		}
	}
	p, err := pathexpr.Parse("friend+[1,3]/colleague+[1]")
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	csr := g.CSR()
	g.MustAddEdge(ids[0], ids[5], "friend")
	g.MustAddEdge(ids[2], ids[0], "colleague")
	if err := g.RemoveEdge(g.FindEdge(ids[1], ids[8], g.Label("colleague"))); err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(g.MustAddNode("late", nil), ids[3], "friend")
	if g.CSR() != csr {
		t.Fatal("mutations did not patch the CSR in place")
	}
	for i := 0; i < 8; i++ { // warm plan cache and scratch pool
		if _, err := e.Reachable(ids[0], ids[i+20], p); err != nil {
			t.Fatal(err)
		}
		if _, err := e.AudienceSet(ids[0], p); err != nil {
			t.Fatal(err)
		}
	}
	return e, p, ids[0], ids[21]
}

// TestReachableZeroAlloc locks in the tentpole guarantee: a warmed engine
// answers Reachable with zero heap allocations per query.
func TestReachableZeroAlloc(t *testing.T) {
	e, p, owner, req := allocFixture(t)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Reachable(owner, req, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reachable allocates %.2f objects/op on a warmed engine, want 0", allocs)
	}
}

// TestAppendAudienceZeroAlloc locks in the audience half: with a reusable
// destination buffer, a warmed engine materializes the full audience with
// zero heap allocations per query.
func TestAppendAudienceZeroAlloc(t *testing.T) {
	e, p, owner, _ := allocFixture(t)
	buf, err := e.AppendAudience(nil, owner, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) == 0 {
		t.Fatal("fixture audience is empty; the assertion would be vacuous")
	}
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = e.AppendAudience(buf[:0], owner, p)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendAudience allocates %.2f objects/op on a warmed engine, want 0", allocs)
	}
}
