package search

import (
	"math/rand"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/paperfix"
	"reachac/internal/pathexpr"
)

func TestReversePaperQuery(t *testing.T) {
	// Q1 = friend+[1,2]/colleague+[1]; reversed: colleague-[1]/friend-[1,2].
	rev, src := pathexpr.Reverse(paperfix.Q1())
	if got := rev.String(); got != "colleague-[1]/friend-[1,2]" {
		t.Fatalf("reversed Q1 = %q", got)
	}
	if len(src) != 0 {
		t.Fatalf("srcPreds = %v, want none", src)
	}
}

func TestReversePredicateReattachment(t *testing.T) {
	p := pathexpr.MustParse(`friend+[1]{age>=18}/colleague+[2]{age<30}/parent-[1]{age=5}`)
	rev, src := pathexpr.Reverse(p)
	// Reversed order: parent+[1], colleague-[2], friend-[1].
	if rev.Steps[0].Label != "parent" || rev.Steps[0].Dir != pathexpr.Out {
		t.Fatalf("rev[0] = %+v", rev.Steps[0])
	}
	// rev step 0 ends where original colleague step ended: carries age<30.
	if len(rev.Steps[0].Preds) != 1 || rev.Steps[0].Preds[0].Op != pathexpr.OpLt {
		t.Fatalf("rev[0] preds = %v", rev.Steps[0].Preds)
	}
	// rev step 1 ends where friend step ended: carries age>=18.
	if len(rev.Steps[1].Preds) != 1 || rev.Steps[1].Preds[0].Op != pathexpr.OpGe {
		t.Fatalf("rev[1] preds = %v", rev.Steps[1].Preds)
	}
	// rev step 2 ends at the owner: no predicates.
	if len(rev.Steps[2].Preds) != 0 {
		t.Fatalf("rev[2] preds = %v", rev.Steps[2].Preds)
	}
	// The original last step's predicate (age=5) applies to the requester.
	if len(src) != 1 || src[0].Op != pathexpr.OpEq {
		t.Fatalf("srcPreds = %v", src)
	}
	// Reverse does not alias the original's predicate slices.
	rev.Steps[0].Preds[0].Attr = "mutated"
	if p.Steps[1].Preds[0].Attr != "age" {
		t.Fatal("Reverse aliases original predicates")
	}
}

func TestReverseEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	exprs := []string{
		"friend+[1,2]/colleague+[1]",
		"friend-[2]",
		"friend*[1,2]/parent+[1]",
		"colleague+[1,*]",
		"friend+[1]{age>=18}/parent-[1]",
		"parent+[1]/friend+[1,3]{age<40}",
	}
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(12)
		g, _ := randomGraph(rng, n, 3)
		e := New(g)
		for _, expr := range exprs {
			p := pathexpr.MustParse(expr)
			rev, src := pathexpr.Reverse(p)
			for o := 0; o < n; o++ {
				for r := 0; r < n; r++ {
					oid, rid := graph.NodeID(o), graph.NodeID(r)
					want, err := e.Reachable(oid, rid, p)
					if err != nil {
						t.Fatal(err)
					}
					srcOK := true
					for _, pr := range src {
						if !pr.Eval(g.Node(rid).Attrs) {
							srcOK = false
						}
					}
					got, err := e.Reachable(rid, oid, rev)
					if err != nil {
						t.Fatal(err)
					}
					if (got && srcOK) != want {
						t.Fatalf("trial %d: reverse of %s disagrees on (%d,%d): fwd=%v rev=%v srcOK=%v",
							trial, expr, o, r, want, got, srcOK)
					}
				}
			}
		}
	}
}
