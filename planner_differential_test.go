package reachac

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"reachac/internal/core"
)

// TestDifferentialPlannerVsStatic replays one randomized mutation/query
// trace through two identical networks — one with cost-based planner
// routing enabled over the primary engine, one answering every query
// statically — for each of the six engine kinds, and asserts the decisions
// are identical at every step. Routing picks among the primary evaluator,
// the flat engine forward or reversed, and the audience cache; whichever
// strategy the cost model chooses, the answer must not change.
func TestDifferentialPlannerVsStatic(t *testing.T) {
	kinds := []EngineKind{Online, OnlineDFS, OnlineAdaptive, Closure, Index, IndexPaperJoin}
	for _, kind := range kinds {
		// The second configuration adds more single-rule resources than the
		// plan cache once had slots (1 024, one per rule pointer), drawn from
		// a handful of expressions, and sweeps all of them on one snapshot.
		for _, extraRules := range []int{0, 1100} {
			t.Run(fmt.Sprintf("%s/rules=%d", kind, 2+extraRules), func(t *testing.T) {
				t.Parallel()
				differentialPlannerVsStatic(t, kind, extraRules)
			})
		}
	}
}

// ruleExprs are the expressions the extra single-rule resources share.
var ruleExprs = []string{
	"friend+[1,2]",
	"friend*[1,3]{age>=30}",
	"colleague+[1]/friend+[1,2]",
	"friend-[1]/parent*[1]",
	"friend+[2,3]",
}

func differentialPlannerVsStatic(t *testing.T, kind EngineKind, extraRules int) {
	rng := rand.New(rand.NewSource(int64(7000 + kind)))
	routed := New(WithPlanner(PlannerOptions{}))
	static := New()
	nets := []*Network{routed, static}

	const members = 24
	ids := make([]UserID, members)
	for i := range ids {
		name := fmt.Sprintf("m%02d", i)
		for _, n := range nets {
			ids[i] = n.MustAddUser(name, IntAttr("age", 10+i*3))
		}
	}
	type rel struct {
		from, to UserID
		label    string
	}
	labels := []string{"friend", "colleague", "parent"}
	var live []rel
	addRel := func(r rel) {
		e1 := routed.Relate(r.from, r.to, r.label)
		e2 := static.Relate(r.from, r.to, r.label)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("Relate divergence: %v vs %v", e1, e2)
		}
		if e1 == nil {
			live = append(live, r)
		}
	}
	for i := 0; i < members; i++ {
		addRel(rel{ids[i], ids[(i+1)%members], "friend"})
	}
	for _, n := range nets {
		if _, err := n.Share("album", ids[0], "friend+[1,3]"); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Share("album", ids[0], "colleague+[1]/friend+[1]"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < extraRules; i++ {
			if _, err := n.Share(fmt.Sprintf("r%04d", i), ids[i%members], ruleExprs[i%len(ruleExprs)]); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.UseEngine(kind); err != nil {
			t.Fatal(err)
		}
	}

	rounds := 50
	if kind == Index || kind == IndexPaperJoin {
		rounds = 20 // index rebuilds are the expensive arm
	}
	check := func(step string) {
		t.Helper()
		for s := 0; s < 6; s++ {
			req := ids[rng.Intn(members)]
			d1, err := routed.CanAccess("album", req)
			if err != nil {
				t.Fatalf("%s: routed CanAccess: %v", step, err)
			}
			d2, err := static.CanAccess("album", req)
			if err != nil {
				t.Fatalf("%s: static CanAccess: %v", step, err)
			}
			if d1.Effect != d2.Effect {
				t.Fatalf("%s: requester %d: routed=%v static=%v", step, req, d1.Effect, d2.Effect)
			}
			o, r := ids[rng.Intn(members)], ids[rng.Intn(members)]
			p1, err := routed.CheckPath(o, r, "friend+[1,2]")
			if err != nil {
				t.Fatal(err)
			}
			p2, err := static.CheckPath(o, r, "friend+[1,2]")
			if err != nil {
				t.Fatal(err)
			}
			if p1 != p2 {
				t.Fatalf("%s: CheckPath(%d,%d): routed=%v static=%v", step, o, r, p1, p2)
			}
		}
		b1, err := routed.CanAccessAll("album", ids)
		if err != nil {
			t.Fatalf("%s: routed CanAccessAll: %v", step, err)
		}
		b2, err := static.CanAccessAll("album", ids)
		if err != nil {
			t.Fatalf("%s: static CanAccessAll: %v", step, err)
		}
		for i := range b1 {
			if b1[i].Effect != b2[i].Effect {
				t.Fatalf("%s: batch requester %d: routed=%v static=%v", step, ids[i], b1[i].Effect, b2[i].Effect)
			}
		}
		a1, err := routed.Audience("album")
		if err != nil {
			t.Fatalf("%s: routed Audience: %v", step, err)
		}
		a2, err := static.Audience("album")
		if err != nil {
			t.Fatalf("%s: static Audience: %v", step, err)
		}
		if !reflect.DeepEqual(a1, a2) {
			t.Fatalf("%s: Audience: routed=%v static=%v", step, a1, a2)
		}
	}
	// sweepRules decides every extra resource once, on one snapshot.
	sweepRules := func(step string) {
		t.Helper()
		for i := 0; i < extraRules; i++ {
			res, req := fmt.Sprintf("r%04d", i), ids[rng.Intn(members)]
			d1, err := routed.CanAccess(res, req)
			if err != nil {
				t.Fatalf("%s: routed CanAccess(%s): %v", step, res, err)
			}
			d2, err := static.CanAccess(res, req)
			if err != nil {
				t.Fatalf("%s: static CanAccess(%s): %v", step, res, err)
			}
			if d1.Effect != d2.Effect {
				t.Fatalf("%s: %s requester %d: routed=%v static=%v", step, res, req, d1.Effect, d2.Effect)
			}
		}
	}
	check("initial")
	sweepRules("initial")
	for round := 0; round < rounds; round++ {
		switch op := rng.Intn(10); {
		case op < 4: // add a relationship
			from, to := ids[rng.Intn(members)], ids[rng.Intn(members)]
			if from != to {
				addRel(rel{from, to, labels[rng.Intn(len(labels))]})
			}
		case op < 7: // remove a live relationship
			if len(live) > 0 {
				i := rng.Intn(len(live))
				r := live[i]
				e1 := routed.Unrelate(r.from, r.to, r.label)
				e2 := static.Unrelate(r.from, r.to, r.label)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("Unrelate divergence: %v vs %v", e1, e2)
				}
				live = append(live[:i], live[i+1:]...)
			}
		case op < 8: // add a member (node-only delta)
			name := fmt.Sprintf("x%03d", round)
			for _, n := range nets {
				n.MustAddUser(name)
			}
		default: // policy churn
			rid1, e1 := routed.Share("album", ids[0], "parent-[1]/friend+[1,2]")
			rid2, e2 := static.Share("album", ids[0], "parent-[1]/friend+[1,2]")
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("Share divergence: %v vs %v", e1, e2)
			}
			if e1 == nil {
				check("policy-add")
				if routed.Revoke("album", rid1) != static.Revoke("album", rid2) {
					t.Fatal("Revoke divergence")
				}
			}
		}
		check(fmt.Sprintf("round %d", round))
	}
	sweepRules("final")
	st := routed.Stats()
	routes := st.PlannerRouteAudience + st.PlannerRouteFlatForward +
		st.PlannerRouteFlatReverse + st.PlannerRoutePrimary
	if routes == 0 {
		t.Fatal("planner network routed no queries — routing was not exercised")
	}
}

// TestDecisionCachePerDeltaInvalidation pins the per-delta decision-cache
// eviction rules end to end: entries tagged with labels a mutation does not
// touch survive (and keep serving hits), while any entry whose labels
// intersect the delta is evicted before the next read — a stale decision is
// never served.
func TestDecisionCachePerDeltaInvalidation(t *testing.T) {
	n := New()
	alice := n.MustAddUser("alice")
	bob := n.MustAddUser("bob")
	carol := n.MustAddUser("carol")
	if err := n.Relate(alice, bob, "friend"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Share("doc", alice, "friend+[1]"); err != nil {
		t.Fatal(err)
	}

	mustEffect := func(step string, req UserID, want core.Effect) {
		t.Helper()
		d, err := n.CanAccess("doc", req)
		if err != nil {
			t.Fatalf("%s: CanAccess: %v", step, err)
		}
		if d.Effect != want {
			t.Fatalf("%s: requester %d: got %v, want %v", step, req, d.Effect, want)
		}
	}

	// Prime the cache: one Allow (bob via friend) and one Deny (carol).
	mustEffect("prime", bob, Allow)
	mustEffect("prime", carol, Deny)

	// Repeat reads are cache hits.
	before := n.Stats()
	mustEffect("warm", bob, Allow)
	mustEffect("warm", carol, Deny)
	after := n.Stats()
	if hits := after.DecisionCacheHits - before.DecisionCacheHits; hits < 2 {
		t.Fatalf("warm reads: got %d cache hits, want >= 2", hits)
	}

	// Warm both ping-pong snapshots: the decision cache is carried forward
	// through the retired spare snapshot's delta advance, so a warm cache
	// becomes reachable one publication after the reads that filled it. The
	// first unrelated mutation re-primes the freshly-published cache; the
	// second must then serve from the carried cache with zero evictions.
	if err := n.Relate(bob, carol, "colleague"); err != nil {
		t.Fatal(err)
	}
	mustEffect("warm-spare", bob, Allow)
	mustEffect("warm-spare", carol, Deny)
	if err := n.Unrelate(bob, carol, "colleague"); err != nil {
		t.Fatal(err)
	}
	before = n.Stats()
	mustEffect("unrelated-remove", bob, Allow)
	mustEffect("unrelated-remove", carol, Deny)
	after = n.Stats()
	if ev := after.DecisionCacheEvictions - before.DecisionCacheEvictions; ev != 0 {
		t.Fatalf("unrelated mutation evicted %d entries, want 0", ev)
	}
	if hits := after.DecisionCacheHits - before.DecisionCacheHits; hits < 2 {
		t.Fatalf("after unrelated mutation: got %d cache hits, want >= 2 (cache was not carried)", hits)
	}

	// Adding a friend edge intersects carol's cached Deny: it must be
	// evicted and the fresh decision must be Allow, immediately.
	if err := n.Relate(alice, carol, "friend"); err != nil {
		t.Fatal(err)
	}
	mustEffect("related-add", carol, Allow)
	// Monotonicity: an edge add cannot revoke access, so bob's Allow
	// legitimately survives — and must still be correct.
	mustEffect("related-add", bob, Allow)

	// Removing the friend edge intersects bob's cached Allow: evicted, and
	// the fresh decision is Deny.
	if err := n.Unrelate(alice, bob, "friend"); err != nil {
		t.Fatal(err)
	}
	mustEffect("related-remove", bob, Deny)
	mustEffect("related-remove", carol, Allow)

	st := n.Stats()
	if st.DecisionCacheEvictions == 0 {
		t.Fatal("intersecting mutations evicted nothing — per-delta invalidation is not running")
	}

	// Randomized soundness sweep: interleave mutations with full-audience
	// probes; every cached answer must match a cache-bypassing CheckPath
	// oracle on the live rule's path.
	rng := rand.New(rand.NewSource(42))
	users := []UserID{alice, bob, carol}
	for i := 0; i < 40; i++ {
		from, to := users[rng.Intn(3)], users[rng.Intn(3)]
		if from == to {
			continue
		}
		label := []string{"friend", "colleague"}[rng.Intn(2)]
		if rng.Intn(2) == 0 {
			_ = n.Relate(from, to, label)
		} else {
			_ = n.Unrelate(from, to, label)
		}
		for _, req := range users {
			if req == alice {
				continue
			}
			d, err := n.CanAccess("doc", req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := n.CheckPath(alice, req, "friend+[1]")
			if err != nil {
				t.Fatal(err)
			}
			if got := d.Effect == Allow; got != want {
				t.Fatalf("step %d: requester %d: cached decision %v, oracle %v", i, req, d.Effect, want)
			}
		}
	}
}
