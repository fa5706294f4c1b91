package reachac

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"reachac/internal/core"
	"reachac/internal/pathexpr"
)

// TestDifferentialPlannerVsStatic replays one randomized mutation/query
// trace through a network and asserts, at every step, that its decisions,
// batches, path checks and audiences are those of the two library engines
// (see libraryEngines) on the same state. Checks search from whichever
// endpoint is cheaper, so the trace drives both directions of the search.
func TestDifferentialPlannerVsStatic(t *testing.T) {
	// The second configuration adds more single-rule resources than the
	// plan cache once had slots (1 024, one per rule pointer), drawn from a
	// handful of expressions, and sweeps all of them on one snapshot.
	for _, extraRules := range []int{0, 1100} {
		t.Run(fmt.Sprintf("rules=%d", 2+extraRules), func(t *testing.T) {
			t.Parallel()
			differentialPlannerVsStatic(t, extraRules)
		})
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

func differentialPlannerVsStatic(t *testing.T, extraRules int) {
	rng := rand.New(rand.NewSource(7000))
	n := New()

	const members = 24
	ids := make([]UserID, members)
	for i := range ids {
		ids[i] = n.MustAddUser(fmt.Sprintf("m%02d", i), IntAttr("age", 10+i*3))
	}
	type rel struct {
		from, to UserID
		label    string
	}
	labels := []string{"friend", "colleague", "parent"}
	var live []rel
	addRel := func(r rel) {
		if n.Relate(r.from, r.to, r.label) == nil {
			live = append(live, r)
		}
	}
	for i := 0; i < members; i++ {
		addRel(rel{ids[i], ids[(i+1)%members], "friend"})
	}
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

	const rounds = 50
	reach := pathexpr.MustParse("friend+[1,2]")
	check := func(step string) {
		t.Helper()
		libs := libraryEngines(t, n)
		reqs := make([]UserID, 6)
		for s := range reqs {
			reqs[s] = ids[rng.Intn(members)]
			o, r := ids[rng.Intn(members)], ids[rng.Intn(members)]
			got, err := n.CheckPath(o, r, reach.String())
			if err != nil {
				t.Fatal(err)
			}
			for _, lib := range libs {
				want, err := lib.eval.Reachable(o, r, reach)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s: CheckPath(%d,%d): %v, %s %v", step, o, r, got, lib.name, want)
				}
			}
		}
		assertLibrariesAgree(t, step, n, libs, []core.ResourceID{"album"}, reqs)
		batch, err := n.CanAccessAll("album", ids)
		if err != nil {
			t.Fatalf("%s: CanAccessAll: %v", step, err)
		}
		aud, err := n.Audience("album")
		if err != nil {
			t.Fatalf("%s: Audience: %v", step, err)
		}
		for _, lib := range libs {
			var libAud []UserID
			for i, u := range ids {
				d, err := lib.engine.Decide("album", u)
				if err != nil {
					t.Fatal(err)
				}
				if batch[i].Effect != d.Effect || batch[i].RuleID != d.RuleID {
					t.Fatalf("%s: batch requester %d: (%v,%q), %s (%v,%q)",
						step, u, batch[i].Effect, batch[i].RuleID, lib.name, d.Effect, d.RuleID)
				}
				if d.Effect == Allow && u != ids[0] {
					libAud = append(libAud, u)
				}
			}
			// Members added by the trace have no relationship, so no rule
			// reaches them: the audience lies among ids.
			if !reflect.DeepEqual(aud, libAud) {
				t.Fatalf("%s: Audience: %v, %s %v", step, aud, lib.name, libAud)
			}
		}
	}
	// sweepRules decides every extra resource once, on one snapshot.
	sweepRules := func(step string) {
		t.Helper()
		res := make([]core.ResourceID, extraRules)
		for i := range res {
			res[i] = core.ResourceID(fmt.Sprintf("r%04d", i))
		}
		assertLibrariesAgree(t, step, n, libraryEngines(t, n), res, []UserID{ids[rng.Intn(members)]})
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
				if err := n.Unrelate(r.from, r.to, r.label); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
			}
		case op < 8: // add a member (node-only delta)
			n.MustAddUser(fmt.Sprintf("x%03d", round))
		default: // policy churn
			rid, err := n.Share("album", ids[0], "parent-[1]/friend+[1,2]")
			if err != nil {
				t.Fatal(err)
			}
			check("policy-add")
			if !n.Revoke("album", rid) {
				t.Fatal("Revoke found no rule")
			}
		}
		check(fmt.Sprintf("round %d", round))
	}
	sweepRules("final")
}
