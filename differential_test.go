package reachac

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDifferentialDeltaVsRebuild replays one randomized mutation/query
// trace through two identical networks — one publishing snapshots via the
// delta-advance path, one with the delta log disabled so every publication
// pays the full clone+rebuild — and asserts the decisions are identical at
// every step. This is the end-to-end guarantee that incremental publication
// is invisible to callers.
func TestDifferentialDeltaVsRebuild(t *testing.T) {
	t.Parallel()
	// The subtest is named after the engine that answers: the online search.
	t.Run("online-bfs", differentialDeltaVsRebuild)
}

func differentialDeltaVsRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1000))
	delta := New()
	rebuild := New()
	rebuild.Graph().SetDeltaLogLimit(-1)
	nets := []*Network{delta, rebuild}

	const members = 24
	ids := make([]UserID, members)
	for i := range ids {
		name := fmt.Sprintf("m%02d", i)
		for _, n := range nets {
			id := n.MustAddUser(name, IntAttr("age", 10+i*3))
			ids[i] = id
		}
	}
	type rel struct {
		from, to UserID
		label    string
	}
	labels := []string{"friend", "colleague", "parent"}
	var live []rel
	addRel := func(r rel) {
		e1 := delta.Relate(r.from, r.to, r.label)
		e2 := rebuild.Relate(r.from, r.to, r.label)
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
	}

	const rounds = 60
	check := func(step string) {
		t.Helper()
		for s := 0; s < 6; s++ {
			req := ids[rng.Intn(members)]
			d1, err := delta.CanAccess("album", req)
			if err != nil {
				t.Fatalf("%s: delta CanAccess: %v", step, err)
			}
			d2, err := rebuild.CanAccess("album", req)
			if err != nil {
				t.Fatalf("%s: rebuild CanAccess: %v", step, err)
			}
			if d1.Effect != d2.Effect {
				t.Fatalf("%s: requester %d: delta=%v rebuild=%v", step, req, d1.Effect, d2.Effect)
			}
			o, r := ids[rng.Intn(members)], ids[rng.Intn(members)]
			p1, err := delta.CheckPath(o, r, "friend+[1,2]")
			if err != nil {
				t.Fatal(err)
			}
			p2, err := rebuild.CheckPath(o, r, "friend+[1,2]")
			if err != nil {
				t.Fatal(err)
			}
			if p1 != p2 {
				t.Fatalf("%s: CheckPath(%d,%d): delta=%v rebuild=%v", step, o, r, p1, p2)
			}
		}
	}
	check("initial")
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
				e1 := delta.Unrelate(r.from, r.to, r.label)
				e2 := rebuild.Unrelate(r.from, r.to, r.label)
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
		case op < 9: // batched mutation burst
			from := ids[rng.Intn(members)]
			var errs [2]error
			for i, n := range nets {
				errs[i] = n.Batch(func(tx *Tx) error {
					for k := 1; k <= 3; k++ {
						to := ids[(int(from)+k*5)%members]
						if to == from {
							continue
						}
						if err := tx.Relate(from, to, "colleague"); err != nil {
							return err
						}
					}
					return nil
				})
			}
			// Identical traces fail identically; a failed batch is
			// rolled back, so both arms stay aligned either way.
			if (errs[0] == nil) != (errs[1] == nil) {
				t.Fatalf("Batch divergence: %v vs %v", errs[0], errs[1])
			}
			// Edges added here are never unrelated by the trace
			// (removals draw from `live` only), keeping bookkeeping
			// simple without losing alignment.
		default: // policy churn
			rid1, e1 := delta.Share("album", ids[0], "parent-[1]/friend+[1,2]")
			rid2, e2 := rebuild.Share("album", ids[0], "parent-[1]/friend+[1,2]")
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("Share divergence: %v vs %v", e1, e2)
			}
			if e1 == nil {
				check("policy-add")
				if delta.Revoke("album", rid1) != rebuild.Revoke("album", rid2) {
					t.Fatal("Revoke divergence")
				}
			}
		}
		check(fmt.Sprintf("round %d", round))
	}
}
