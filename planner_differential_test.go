package reachac

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestDifferentialPlannerVsStatic replays one randomized mutation/query
// trace through two identical networks — one with per-query routing
// enabled over the primary engine, one answering every query statically —
// for each engine kind, and asserts the decisions are identical at every
// step. Routing picks among the audience cache, the flat engine forward or
// reversed, and the primary evaluator; whichever route a query takes, the
// answer must not change.
func TestDifferentialPlannerVsStatic(t *testing.T) {
	kinds := EngineKinds()
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
	if kind == Index {
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
	// Past the audience cache, Online searches flat and never calls its
	// primary; the precomputed kinds do the opposite.
	st := routed.Stats()
	flat := st.PlannerRouteFlatForward + st.PlannerRouteFlatReverse
	if kind == Online && (flat == 0 || st.PlannerRoutePrimary != 0) ||
		kind != Online && (flat != 0 || st.PlannerRoutePrimary == 0) {
		t.Fatalf("routes on %v: audience=%d flat=%d primary=%d", kind, st.PlannerRouteAudience, flat, st.PlannerRoutePrimary)
	}
}
