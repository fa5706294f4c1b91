//go:build !race

// Allocation budgets for the facade read path, the user-facing counterpart
// of the zero-allocation assertions on search.Engine (internal/search's
// alloc_test.go). The facade cannot be literally allocation-free — audience
// results are copied out of the shared cache, batch decisions return a
// slice — so each operation gets an explicit measured budget instead,
// and CI fails when a regression pushes past it. Excluded under the race
// detector, whose instrumentation perturbs allocation behavior.
package reachac

import (
	"fmt"
	"testing"
)

// allocNet builds a 200-member network with a shared album and warms the
// snapshot: decision cache, plan cache, CSR and audience cache all hot.
func allocNet(t testing.TB) (*Network, []UserID) {
	t.Helper()
	n := New()
	const members = 200
	ids := make([]UserID, members)
	for i := range ids {
		ids[i] = n.MustAddUser(fmt.Sprintf("u%03d", i))
	}
	for i := 0; i < members; i++ {
		if err := n.Relate(ids[i], ids[(i+1)%members], "friend"); err != nil {
			t.Fatal(err)
		}
		if err := n.Relate(ids[i], ids[(i+7)%members], "colleague"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Share("album", ids[0], "friend+[1,3]"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := n.CanAccess("album", ids[21]); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Audience("album"); err != nil {
			t.Fatal(err)
		}
	}
	return n, ids
}

// TestCanAccessAllocBudget: a warmed CanAccess is a snapshot pin plus a
// decision-cache hit and allocates nothing at all.
func TestCanAccessAllocBudget(t *testing.T) {
	n, ids := allocNet(t)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := n.CanAccess("album", ids[21]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warmed CanAccess allocates %.2f objects/op, budget 0", allocs)
	}
}

// TestAudienceAllocBudget: a warmed Audience is served from the audience
// cache; the only allocations assemble the fresh result slice handed to the
// caller (measured: 2 objects/op).
func TestAudienceAllocBudget(t *testing.T) {
	n, _ := allocNet(t)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := n.Audience("album"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warmed Audience allocates %.2f objects/op, budget 2", allocs)
	}
}

// TestCanAccessAllAllocBudget: a warmed 16-requester batch — below
// fanOutMin, so decided serially — pays for the result slice and nothing
// else (measured: 1 object/op; it was 2 plus scheduler-dependent goroutine
// bookkeeping while every batch fanned out).
func TestCanAccessAllAllocBudget(t *testing.T) {
	n, ids := allocNet(t)
	reqs := ids[:16]
	if _, err := n.CanAccessAll("album", reqs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := n.CanAccessAll("album", reqs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("warmed CanAccessAll allocates %.2f objects/op, budget 1", allocs)
	}
}

// TestUncachedDecideAllocBudget: a denial decided past the decision cache —
// rule lookup, evaluator, audit record — allocates nothing: the rules are
// read through the store's shared slice (it was 1 object/op while RulesFor
// copied), and only an allow formats a reason.
func TestUncachedDecideAllocBudget(t *testing.T) {
	n, ids := allocNet(t)
	s := n.snap.Load()
	allocs := testing.AllocsPerRun(200, func() {
		if d, err := s.engine.Decide("album", ids[100]); err != nil || d.Effect != Deny {
			t.Fatalf("Decide = (%v, %v), want a denial", d.Effect, err)
		}
	})
	if allocs > 0 {
		t.Fatalf("uncached denial allocates %.2f objects/op, budget 0", allocs)
	}
}
