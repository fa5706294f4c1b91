//go:build !race

// Allocation budgets for the facade read path, the user-facing counterpart
// of the zero-allocation assertions on search.Engine (internal/search's
// alloc_test.go). The facade cannot be literally allocation-free — an
// audience is assembled into a fresh slice, batch decisions return a
// slice — so each operation gets an explicit measured budget instead,
// and CI fails when a regression pushes past it. Excluded under the race
// detector, whose instrumentation perturbs allocation behavior.
package reachac

import (
	"fmt"
	"testing"

	"reachac/internal/core"
)

// allocNet builds a 200-member network with a shared album and warms the
// snapshot: plan cache, CSR and search scratch all hot.
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

// TestCanAccessAllocBudget: a warmed CanAccess is a snapshot pin plus one
// evaluation and allocates nothing at all.
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

// TestAudienceAllocBudget: a warmed Audience is one product search per rule
// condition; the only allocations are the condition's member set, which grows
// by appending (two objects for this fixture's three members), and the fresh
// result slice handed to the caller (measured: 3 objects/op).
func TestAudienceAllocBudget(t *testing.T) {
	n, _ := allocNet(t)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := n.Audience("album"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("warmed Audience allocates %.2f objects/op, budget 3", allocs)
	}
}

// TestCanAccessAllAllocBudget: a warmed 16-requester batch pays for the
// result slice and nothing else (measured: 1 object/op; it was 2 plus
// scheduler-dependent goroutine bookkeeping while every batch fanned out).
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

// TestUncachedDecideAllocBudget: a decision — rule lookup, evaluator, audit
// record — allocates nothing, denied or allowed: the rules are read through
// the store's shared slice (it was 1 object/op while RulesFor copied) and an
// allow's reason is rendered when its rule is stored (it was formatted per
// decision).
func TestUncachedDecideAllocBudget(t *testing.T) {
	n, ids := allocNet(t)
	s := n.snap.Load()
	for _, c := range []struct {
		requester UserID
		want      core.Effect
	}{{ids[100], Deny}, {ids[2], Allow}} {
		allocs := testing.AllocsPerRun(200, func() {
			if d, err := s.engine.Decide("album", c.requester); err != nil || d.Effect != c.want {
				t.Fatalf("Decide = (%v, %v), want %v", d.Effect, err, c.want)
			}
		})
		if allocs > 0 {
			t.Fatalf("%v allocates %.2f objects/op, budget 0", c.want, allocs)
		}
	}
}

// TestManyRulesCheckAllocBudget: a check allocates nothing however many
// rules the store holds, whichever side of the search leads. Each run decides
// a different one of 2 048 single-rule resources, which share five
// expressions and so five plans; while plans were cached per rule pointer,
// 1 024 at most, every other rule here compiled its plan anew on every check
// (a dozen objects each time). The endpoints' first-step fan-outs, which a
// meet search compares to pick its first layer, pin which side every check of
// an arm expands first: the owner's, or the requester's.
func TestManyRulesCheckAllocBudget(t *testing.T) {
	const rules = 2048
	n, ids := manyRulesNet(t, rules)
	for _, route := range []struct {
		name      string
		first     int // even resources belong to the out-hub, odd ones to lattice members
		requester UserID
		reverse   bool // the requester's side expands first
	}{
		{"owner first", 1, ids[1], false},
		{"requester first", 0, ids[500], true},
	} {
		names := make([]string, 0, rules/2)
		for i := route.first; i < rules; i += 2 {
			names = append(names, fmt.Sprintf("res%05d", i))
		}
		if _, err := n.CanAccess(names[0], route.requester); err != nil {
			t.Fatal(err)
		}
		s := n.snap.Load()
		for _, res := range names[:16] { // one pass over the five expressions and more
			if _, err := s.engine.Decide(core.ResourceID(res), route.requester); err != nil {
				t.Fatal(err)
			}
		}
		// Every step of manyRulesExprs is outgoing: the owner's side starts on
		// the first step's out-edges, the requester's on the last step's
		// in-edges.
		csr := s.g.CSR()
		for _, res := range names {
			rule := s.store.RulesFor(core.ResourceID(res))[0]
			steps := rule.Conditions[0].Path.Steps
			fwd := len(csr.OutNeighbors(rule.Owner, s.g.Label(steps[0].Label)))
			rev := len(csr.InNeighbors(route.requester, s.g.Label(steps[len(steps)-1].Label)))
			if (rev < fwd) != route.reverse {
				t.Fatalf("%s: %s fans out %d from the owner, %d from the requester", route.name, res, fwd, rev)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(len(names), func() {
			if _, err := s.engine.Decide(core.ResourceID(names[i%len(names)]), route.requester); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs > 0 {
			t.Fatalf("%s route: check allocates %.2f objects/op over %d rules, budget 0", route.name, allocs, rules)
		}
	}
}
