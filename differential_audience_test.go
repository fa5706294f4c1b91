package reachac

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDifferentialAudienceIncremental replays one randomized mutation trace
// through two identical networks — one publishing snapshots via the
// delta-advance path, where the audience cache is maintained incrementally
// (search.AudienceCache.Advance), one with the delta log disabled so every
// publication rebuilds graph, evaluator and audience cache from scratch —
// across every engine kind, and asserts Audience and PathAudience agree
// after every mutation. It is the end-to-end counterpart of the
// search-level TestAudienceCacheAdvance: incremental audience maintenance
// must be invisible to callers.
func TestDifferentialAudienceIncremental(t *testing.T) {
	kinds := EngineKinds()
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(7000 + kind)))
			delta := New()
			rebuild := New()
			rebuild.Graph().SetDeltaLogLimit(-1)
			nets := []*Network{delta, rebuild}

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
				if i%2 == 0 {
					addRel(rel{ids[i], ids[(i+5)%members], "colleague"})
				}
			}
			for _, n := range nets {
				if _, err := n.Share("album", ids[0], "friend+[1,3]"); err != nil {
					t.Fatal(err)
				}
				if _, err := n.Share("album", ids[0], "colleague+[1]/friend+[1]"); err != nil {
					t.Fatal(err)
				}
				if err := n.UseEngine(kind); err != nil {
					t.Fatal(err)
				}
			}

			sameAudience := func(a, b []UserID) bool {
				if len(a) != len(b) {
					return false
				}
				for i := range a {
					if a[i] != b[i] {
						return false
					}
				}
				return true
			}
			pathExprs := []string{"friend+[1,2]", "colleague-[1]/friend+[1,2]"}
			check := func(step string) {
				t.Helper()
				a1, err := delta.Audience("album")
				if err != nil {
					t.Fatalf("%s: delta Audience: %v", step, err)
				}
				a2, err := rebuild.Audience("album")
				if err != nil {
					t.Fatalf("%s: rebuild Audience: %v", step, err)
				}
				if !sameAudience(a1, a2) {
					t.Fatalf("%s: Audience: incremental %v, rebuild %v", step, a1, a2)
				}
				owner := ids[rng.Intn(members)]
				for _, expr := range pathExprs {
					p1, err := delta.PathAudience(owner, expr)
					if err != nil {
						t.Fatal(err)
					}
					p2, err := rebuild.PathAudience(owner, expr)
					if err != nil {
						t.Fatal(err)
					}
					if !sameAudience(p1, p2) {
						t.Fatalf("%s: PathAudience(%d, %s): incremental %v, rebuild %v",
							step, owner, expr, p1, p2)
					}
				}
				// Cross-check the audience against point decisions: a sampled
				// requester is in the audience iff access is granted.
				req := ids[rng.Intn(members)]
				d, err := delta.CanAccess("album", req)
				if err != nil {
					t.Fatal(err)
				}
				inAud := false
				for _, id := range a1 {
					if id == req {
						inAud = true
						break
					}
				}
				if req != ids[0] && inAud != (d.Effect == Allow) {
					t.Fatalf("%s: requester %d: audience membership %v, CanAccess %v",
						step, req, inAud, d.Effect)
				}
			}
			check("initial")

			rounds := 60
			if kind == Index {
				rounds = 25 // index rebuilds are the expensive arm
			}
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
					if (errs[0] == nil) != (errs[1] == nil) {
						t.Fatalf("Batch divergence: %v vs %v", errs[0], errs[1])
					}
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
		})
	}
}
