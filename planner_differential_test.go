package reachac

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestDifferentialPlannerVsStatic replays one randomized mutation/query
// trace through two identical networks — one on the engine kind under test,
// one on Closure, which never touches the flat search — and asserts the
// decisions, batches, path checks and audiences are identical at every step.
// Online checks search from whichever endpoint is cheaper, so the trace
// drives both directions of the flat search; Index checks go through the
// join index, and every kind's audiences through the flat search.
func TestDifferentialPlannerVsStatic(t *testing.T) {
	for _, kind := range []EngineKind{Online, Index} {
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
	subject, ref := New(), New()
	nets := []*Network{subject, ref}
	kinds := []EngineKind{kind, Closure}

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
		e1 := subject.Relate(r.from, r.to, r.label)
		e2 := ref.Relate(r.from, r.to, r.label)
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
	for ni, n := range nets {
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
		if err := n.UseEngine(kinds[ni]); err != nil {
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
			d1, err := subject.CanAccess("album", req)
			if err != nil {
				t.Fatalf("%s: CanAccess: %v", step, err)
			}
			d2, err := ref.CanAccess("album", req)
			if err != nil {
				t.Fatalf("%s: reference CanAccess: %v", step, err)
			}
			if d1.Effect != d2.Effect {
				t.Fatalf("%s: requester %d: %v, closure %v", step, req, d1.Effect, d2.Effect)
			}
			o, r := ids[rng.Intn(members)], ids[rng.Intn(members)]
			p1, err := subject.CheckPath(o, r, "friend+[1,2]")
			if err != nil {
				t.Fatal(err)
			}
			p2, err := ref.CheckPath(o, r, "friend+[1,2]")
			if err != nil {
				t.Fatal(err)
			}
			if p1 != p2 {
				t.Fatalf("%s: CheckPath(%d,%d): %v, closure %v", step, o, r, p1, p2)
			}
		}
		b1, err := subject.CanAccessAll("album", ids)
		if err != nil {
			t.Fatalf("%s: CanAccessAll: %v", step, err)
		}
		b2, err := ref.CanAccessAll("album", ids)
		if err != nil {
			t.Fatalf("%s: reference CanAccessAll: %v", step, err)
		}
		for i := range b1 {
			if b1[i].Effect != b2[i].Effect {
				t.Fatalf("%s: batch requester %d: %v, closure %v", step, ids[i], b1[i].Effect, b2[i].Effect)
			}
		}
		a1, err := subject.Audience("album")
		if err != nil {
			t.Fatalf("%s: Audience: %v", step, err)
		}
		a2, err := ref.Audience("album")
		if err != nil {
			t.Fatalf("%s: reference Audience: %v", step, err)
		}
		if !reflect.DeepEqual(a1, a2) {
			t.Fatalf("%s: Audience: %v, closure %v", step, a1, a2)
		}
	}
	// sweepRules decides every extra resource once, on one snapshot.
	sweepRules := func(step string) {
		t.Helper()
		for i := 0; i < extraRules; i++ {
			res, req := fmt.Sprintf("r%04d", i), ids[rng.Intn(members)]
			d1, err := subject.CanAccess(res, req)
			if err != nil {
				t.Fatalf("%s: CanAccess(%s): %v", step, res, err)
			}
			d2, err := ref.CanAccess(res, req)
			if err != nil {
				t.Fatalf("%s: reference CanAccess(%s): %v", step, res, err)
			}
			if d1.Effect != d2.Effect {
				t.Fatalf("%s: %s requester %d: %v, closure %v", step, res, req, d1.Effect, d2.Effect)
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
				e1 := subject.Unrelate(r.from, r.to, r.label)
				e2 := ref.Unrelate(r.from, r.to, r.label)
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
			rid1, e1 := subject.Share("album", ids[0], "parent-[1]/friend+[1,2]")
			rid2, e2 := ref.Share("album", ids[0], "parent-[1]/friend+[1,2]")
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("Share divergence: %v vs %v", e1, e2)
			}
			if e1 == nil {
				check("policy-add")
				if subject.Revoke("album", rid1) != ref.Revoke("album", rid2) {
					t.Fatal("Revoke divergence")
				}
			}
		}
		check(fmt.Sprintf("round %d", round))
	}
	sweepRules("final")
}
