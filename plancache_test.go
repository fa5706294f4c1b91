package reachac

import (
	"fmt"
	"testing"
)

// manyRulesExprs are the expressions the resources of manyRulesNet share, the
// way a real policy set draws its rules from a handful of templates.
var manyRulesExprs = []string{
	"friend+[1,2]",
	"friend+[1,3]",
	"friend+[1,2]/colleague+[1]",
	"colleague+[1]/friend+[1,2]",
	"friend+[1]/colleague+[1,2]",
}

// manyRulesMembers is the size of manyRulesNet's graph.
const manyRulesMembers = 1024

// manyRulesNet builds a planner-routed network of manyRulesMembers users and
// `rules` single-rule resources res00000, res00001, … Users form a lattice
// (i → i+1, i+7, i+13 and i+29 as friend, i → i+3 and i+11 as colleague). Two of them are hubs, so
// that a test can pick the planner's route: ids[0] has 40 more outgoing edges
// of either label and owns every even resource — a search from it starts
// wide, so checks against a lattice member run reversed — and ids[1] has 40
// more incoming edges of either label — as the requester of an odd resource,
// owned by lattice member 2+i%256, it makes the forward search the narrow
// one. Resource i's rule is manyRulesExprs[i%256%5], so the (owner,
// expression) pairs, and with them the searches, are the same for any rule
// count of at least 512.
func manyRulesNet(tb testing.TB, rules int) (*Network, []UserID) {
	tb.Helper()
	n := New(WithPlanner(PlannerOptions{}))
	ids := make([]UserID, manyRulesMembers)
	for i := range ids {
		ids[i] = n.MustAddUser(fmt.Sprintf("u%04d", i))
	}
	err := n.Batch(func(tx *Tx) error {
		var err error
		relate := func(from, to UserID, label string) {
			if err == nil {
				err = tx.Relate(from, to, label)
			}
		}
		for i := range ids {
			for _, hop := range []int{1, 7, 13, 29} {
				relate(ids[i], ids[(i+hop)%len(ids)], "friend")
			}
			for _, hop := range []int{3, 11} {
				relate(ids[i], ids[(i+hop)%len(ids)], "colleague")
			}
		}
		for j := 0; j < 40; j++ {
			for _, label := range []string{"friend", "colleague"} {
				relate(ids[0], ids[100+j], label)
				relate(ids[200+j], ids[1], label)
			}
		}
		for i := 0; i < rules && err == nil; i++ {
			owner := ids[0]
			if i%2 == 1 {
				owner = ids[2+i%256]
			}
			_, err = tx.Share(fmt.Sprintf("res%05d", i), owner, manyRulesExprs[i%256%len(manyRulesExprs)])
		}
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return n, ids
}

// TestChecksCompileOnePlanPerExpression is the acceptance test of
// expression-keyed plans: 8 192 single-rule resources share five expressions,
// so after a warm-up that has seen each expression once, 10 000 checks
// compile nothing. Keyed by rule pointer and capped at 1 024 entries,
// the cache made seven checks in eight recompile.
func TestChecksCompileOnePlanPerExpression(t *testing.T) {
	const rules = 8192
	n, ids := manyRulesNet(t, rules)
	check := func(i int) {
		t.Helper()
		// Requesters move with i so that no (resource, requester) pair repeats.
		if _, err := n.CanAccess(fmt.Sprintf("res%05d", i%rules), ids[300+i/rules*7+i%5]); err != nil {
			t.Fatal(err)
		}
	}
	warm := 2 * len(manyRulesExprs)
	for i := 0; i < warm; i++ {
		check(i)
	}
	before := n.Stats()
	if before.PlanCompiles != uint64(len(manyRulesExprs)) {
		t.Fatalf("warm-up compiled %d plans, want one per expression (%d)", before.PlanCompiles, len(manyRulesExprs))
	}
	for i := warm; i < warm+10000; i++ {
		check(i)
	}
	d := n.Stats().Delta(before)
	if d.PlanCompiles != 0 {
		t.Fatalf("10 000 warmed checks compiled %d plans, want 0", d.PlanCompiles)
	}
	if d.PlanCacheEntries != len(manyRulesExprs) {
		t.Fatalf("PlanCacheEntries = %d, want %d", d.PlanCacheEntries, len(manyRulesExprs))
	}
}

// TestAdHocExpressionsDoNotPoisonPlanCache is the regression test for the
// refusing cache: every CheckPath parses a fresh path, each of which used to
// take a cache slot for the life of the snapshot, and after 1 024 of them no
// rule not yet cached was ever cached again. Ad-hoc expressions now share
// plans like any other, so 5 000 calls cycling three strings add at most two
// entries (the first string spells a rule's expression differently) and the
// rule checks that follow compile nothing new.
func TestAdHocExpressionsDoNotPoisonPlanCache(t *testing.T) {
	const rules = 2048
	n, ids := manyRulesNet(t, rules)
	sweep := func() {
		t.Helper()
		for i := 0; i < rules; i++ {
			if _, err := n.CanAccess(fmt.Sprintf("res%05d", i), ids[400+i%5]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 2*len(manyRulesExprs); i++ {
		if _, err := n.CanAccess(fmt.Sprintf("res%05d", i), ids[300]); err != nil {
			t.Fatal(err)
		}
	}
	adHoc := []string{"friend +[1, 2]", "friend-[1,2]", "colleague*[1]/friend+[1]"}
	for i := 0; i < 5000; i++ {
		if _, err := n.CheckPath(ids[i%50], ids[(i+9)%50], adHoc[i%len(adHoc)]); err != nil {
			t.Fatal(err)
		}
	}
	before := n.Stats()
	if want := uint64(len(manyRulesExprs) + 2); before.PlanCompiles != want {
		t.Fatalf("PlanCompiles = %d after the ad-hoc checks, want %d", before.PlanCompiles, want)
	}
	sweep()
	after := n.Stats()
	if d := after.Delta(before); d.PlanCompiles != 0 {
		t.Fatalf("rule checks after the ad-hoc checks compiled %d plans, want 0", d.PlanCompiles)
	}
	if after.PlanCacheEntries > 12 {
		t.Fatalf("plan cache holds %d entries, want at most a dozen", after.PlanCacheEntries)
	}
}
