package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/paperfix"
	"reachac/internal/pathexpr"
	"reachac/internal/search"
)

func fixture(t *testing.T) (*graph.Graph, *Store, *Engine, map[string]graph.NodeID) {
	t.Helper()
	g := paperfix.Graph()
	store := NewStore()
	eng := NewEngine(store, search.New(g), 0)
	ids := make(map[string]graph.NodeID)
	for _, n := range paperfix.Names {
		id, _ := g.NodeByName(n)
		ids[n] = id
	}
	return g, store, eng, ids
}

func TestOwnerAlwaysAllowed(t *testing.T) {
	_, store, eng, ids := fixture(t)
	if err := store.Register("photo1", ids[paperfix.Alice]); err != nil {
		t.Fatal(err)
	}
	d, err := eng.Decide("photo1", ids[paperfix.Alice])
	if err != nil {
		t.Fatal(err)
	}
	if d.Effect != Allow || d.RuleID != "owner" {
		t.Fatalf("owner decision = %+v", d)
	}
}

func TestDenyByDefault(t *testing.T) {
	_, store, eng, ids := fixture(t)
	if err := store.Register("photo1", ids[paperfix.Alice]); err != nil {
		t.Fatal(err)
	}
	// No rules: everyone but the owner is denied.
	d, err := eng.Decide("photo1", ids[paperfix.Bill])
	if err != nil {
		t.Fatal(err)
	}
	if d.Effect != Deny {
		t.Fatalf("no-rule decision = %+v", d)
	}
	// Unknown resource: denied with reason.
	d, err = eng.Decide("ghost", ids[paperfix.Alice])
	if err != nil {
		t.Fatal(err)
	}
	if d.Effect != Deny || d.Reason != "unknown resource" {
		t.Fatalf("unknown resource decision = %+v", d)
	}
}

func TestSingleRuleGrant(t *testing.T) {
	_, store, eng, ids := fixture(t)
	alice := ids[paperfix.Alice]
	if err := store.Register("notes", alice); err != nil {
		t.Fatal(err)
	}
	err := store.AddRule(&Rule{
		Resource:   "notes",
		Owner:      alice,
		Conditions: []Condition{{Path: paperfix.QFriendParentFriend()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// George matches Alice->Colin->Fred->George.
	d, err := eng.Decide("notes", ids[paperfix.George])
	if err != nil {
		t.Fatal(err)
	}
	if d.Effect != Allow || d.RuleID == "" {
		t.Fatalf("George decision = %+v", d)
	}
	// Bill does not match.
	d, err = eng.Decide("notes", ids[paperfix.Bill])
	if err != nil {
		t.Fatal(err)
	}
	if d.Effect != Deny {
		t.Fatalf("Bill decision = %+v", d)
	}
}

func TestConjunctionOfConditions(t *testing.T) {
	_, store, eng, ids := fixture(t)
	alice := ids[paperfix.Alice]
	if err := store.Register("album", alice); err != nil {
		t.Fatal(err)
	}
	// Audience: reachable both via friend[1,3] AND via friend/parent/friend.
	err := store.AddRule(&Rule{
		ID:       "both",
		Resource: "album",
		Owner:    alice,
		Conditions: []Condition{
			{Path: pathexpr.MustParse("friend+[1,3]")},
			{Path: paperfix.QFriendParentFriend()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// George satisfies both (friend chain of length 3 + the f/p/f path).
	d, _ := eng.Decide("album", ids[paperfix.George])
	if d.Effect != Allow {
		t.Fatalf("George conjunctive decision = %+v", d)
	}
	// Colin satisfies friend+[1,3] but not friend/parent/friend.
	d, _ = eng.Decide("album", ids[paperfix.Colin])
	if d.Effect != Deny {
		t.Fatalf("Colin conjunctive decision = %+v", d)
	}
}

func TestMultipleRulesAreAlternatives(t *testing.T) {
	_, store, eng, ids := fixture(t)
	alice := ids[paperfix.Alice]
	if err := store.Register("post", alice); err != nil {
		t.Fatal(err)
	}
	mustAdd := func(r *Rule) {
		t.Helper()
		if err := store.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(&Rule{ID: "direct-friends", Resource: "post", Owner: alice,
		Conditions: []Condition{{Path: pathexpr.MustParse("friend+[1]")}}})
	mustAdd(&Rule{ID: "colleagues", Resource: "post", Owner: alice,
		Conditions: []Condition{{Path: pathexpr.MustParse("colleague+[1]")}}})
	// Bill is a direct friend; David is a colleague; both get in, each via
	// their own rule.
	d, _ := eng.Decide("post", ids[paperfix.Bill])
	if d.Effect != Allow || d.RuleID != "direct-friends" {
		t.Fatalf("Bill = %+v", d)
	}
	d, _ = eng.Decide("post", ids[paperfix.David])
	if d.Effect != Allow || d.RuleID != "colleagues" {
		t.Fatalf("David = %+v", d)
	}
	// Fred matches neither.
	d, _ = eng.Decide("post", ids[paperfix.Fred])
	if d.Effect != Deny {
		t.Fatalf("Fred = %+v", d)
	}
}

func TestPolicyMonotonicity(t *testing.T) {
	// Adding a rule never revokes access; removing one never grants it.
	_, store, eng, ids := fixture(t)
	alice := ids[paperfix.Alice]
	if err := store.Register("r", alice); err != nil {
		t.Fatal(err)
	}
	if err := store.AddRule(&Rule{ID: "a", Resource: "r", Owner: alice,
		Conditions: []Condition{{Path: pathexpr.MustParse("friend+[1]")}}}); err != nil {
		t.Fatal(err)
	}
	allowedBefore := map[string]bool{}
	for _, n := range paperfix.Names {
		d, _ := eng.Decide("r", ids[n])
		allowedBefore[n] = d.Effect == Allow
	}
	if err := store.AddRule(&Rule{ID: "b", Resource: "r", Owner: alice,
		Conditions: []Condition{{Path: pathexpr.MustParse("colleague+[1]")}}}); err != nil {
		t.Fatal(err)
	}
	for _, n := range paperfix.Names {
		d, _ := eng.Decide("r", ids[n])
		if allowedBefore[n] && d.Effect != Allow {
			t.Fatalf("adding a rule revoked %s", n)
		}
	}
	// Remove rule b again: nobody who was denied before may now be allowed.
	if !store.RemoveRule("r", "b") {
		t.Fatal("RemoveRule failed")
	}
	for _, n := range paperfix.Names {
		d, _ := eng.Decide("r", ids[n])
		if !allowedBefore[n] && d.Effect == Allow {
			t.Fatalf("removing a rule granted %s", n)
		}
	}
}

func TestStoreValidation(t *testing.T) {
	_, store, _, ids := fixture(t)
	alice := ids[paperfix.Alice]
	bill := ids[paperfix.Bill]
	p := pathexpr.MustParse("friend+[1]")

	// Rule on unregistered resource.
	err := store.AddRule(&Rule{Resource: "nope", Owner: alice,
		Conditions: []Condition{{Path: p}}})
	if err == nil {
		t.Fatal("rule on unregistered resource accepted")
	}
	if err := store.Register("r", alice); err != nil {
		t.Fatal(err)
	}
	// Wrong owner.
	err = store.AddRule(&Rule{Resource: "r", Owner: bill,
		Conditions: []Condition{{Path: p}}})
	if err == nil {
		t.Fatal("rule by non-owner accepted")
	}
	// Structurally invalid rules.
	bad := []*Rule{
		{Resource: "", Owner: alice, Conditions: []Condition{{Path: p}}},
		{Resource: "r", Owner: alice},
		{Resource: "r", Owner: alice, Conditions: []Condition{{Path: nil}}},
		{Resource: "r", Owner: alice, Conditions: []Condition{{Path: &pathexpr.Path{}}}},
	}
	for i, r := range bad {
		if err := store.AddRule(r); err == nil {
			t.Errorf("bad rule %d accepted", i)
		}
	}
	// Duplicate rule IDs.
	if err := store.AddRule(&Rule{ID: "x", Resource: "r", Owner: alice,
		Conditions: []Condition{{Path: p}}}); err != nil {
		t.Fatal(err)
	}
	if err := store.AddRule(&Rule{ID: "x", Resource: "r", Owner: alice,
		Conditions: []Condition{{Path: p}}}); err == nil {
		t.Fatal("duplicate rule id accepted")
	}
	// Re-register with a different owner.
	if err := store.Register("r", bill); err == nil {
		t.Fatal("re-register with different owner accepted")
	}
	// Same owner re-register is fine.
	if err := store.Register("r", alice); err != nil {
		t.Fatal(err)
	}
}

func TestAutoRuleIDs(t *testing.T) {
	_, store, _, ids := fixture(t)
	alice := ids[paperfix.Alice]
	if err := store.Register("r", alice); err != nil {
		t.Fatal(err)
	}
	p := pathexpr.MustParse("friend+[1]")
	r1 := &Rule{Resource: "r", Owner: alice, Conditions: []Condition{{Path: p}}}
	r2 := &Rule{Resource: "r", Owner: alice, Conditions: []Condition{{Path: p.Clone()}}}
	if err := store.AddRule(r1); err != nil {
		t.Fatal(err)
	}
	if err := store.AddRule(r2); err != nil {
		t.Fatal(err)
	}
	if r1.ID == "" || r2.ID == "" || r1.ID == r2.ID {
		t.Fatalf("auto IDs: %q %q", r1.ID, r2.ID)
	}
}

// TestAddRuleInternsPathsAndRendersReason: rules whose conditions are the
// same expression, parsed separately and spelled differently, share one Path
// once stored; a different expression does not; and an allow names its rule
// in the reason rendered when the rule was added.
func TestAddRuleInternsPathsAndRendersReason(t *testing.T) {
	_, store, eng, ids := fixture(t)
	alice := ids[paperfix.Alice]
	var rules []*Rule
	for i, expr := range []string{"friend+[1,2]", "friend +[1, 2]", "friend+[1,3]"} {
		res := ResourceID(fmt.Sprintf("r%d", i))
		if err := store.Register(res, alice); err != nil {
			t.Fatal(err)
		}
		r := &Rule{Resource: res, Owner: alice, Conditions: []Condition{{Path: pathexpr.MustParse(expr)}}}
		if err := store.AddRule(r); err != nil {
			t.Fatal(err)
		}
		rules = append(rules, r)
	}
	if rules[0].Conditions[0].Path != rules[1].Conditions[0].Path {
		t.Fatal("equal expressions were stored as two paths")
	}
	if rules[0].Conditions[0].Path == rules[2].Conditions[0].Path {
		t.Fatal("different expressions were stored as one path")
	}
	d, err := eng.Decide("r1", ids[paperfix.Bill])
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("all conditions of rule %q satisfied", rules[1].ID); d.Effect != Allow || d.RuleID != rules[1].ID || d.Reason != want {
		t.Fatalf("decision = %+v, want an allow by %s with reason %q", d, rules[1].ID, want)
	}
}

func TestResourcesSorted(t *testing.T) {
	_, store, _, ids := fixture(t)
	for _, r := range []ResourceID{"zeta", "alpha", "mid"} {
		if err := store.Register(r, ids[paperfix.Alice]); err != nil {
			t.Fatal(err)
		}
	}
	got := store.Resources()
	if len(got) != 3 || got[0] != "alpha" || got[1] != "mid" || got[2] != "zeta" {
		t.Fatalf("Resources = %v", got)
	}
}

func TestAuditTrail(t *testing.T) {
	_, store, _, ids := fixture(t)
	alice := ids[paperfix.Alice]
	if err := store.Register("r", alice); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(store, search.New(paperfix.Graph()), 3)
	for i := 0; i < 5; i++ {
		if _, err := eng.Decide("r", alice); err != nil {
			t.Fatal(err)
		}
	}
	audit := eng.Audit()
	if len(audit) != 3 {
		t.Fatalf("audit kept %d entries, want 3", len(audit))
	}
	// Disabled auditing.
	eng2 := NewEngine(store, search.New(paperfix.Graph()), -1)
	if _, err := eng2.Decide("r", alice); err != nil {
		t.Fatal(err)
	}
	if len(eng2.Audit()) != 0 {
		t.Fatal("disabled audit recorded entries")
	}
}

func TestConcurrentDecides(t *testing.T) {
	g, store, _, ids := fixture(t)
	alice := ids[paperfix.Alice]
	if err := store.Register("r", alice); err != nil {
		t.Fatal(err)
	}
	if err := store.AddRule(&Rule{Resource: "r", Owner: alice,
		Conditions: []Condition{{Path: pathexpr.MustParse("friend+[1,2]")}}}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(store, search.New(g), 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, n := range paperfix.Names {
					if _, err := eng.Decide("r", ids[n]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestEffectString(t *testing.T) {
	if Allow.String() != "allow" || Deny.String() != "deny" {
		t.Fatal("Effect strings")
	}
}

// TestCloneIsCopyOnWrite drives a store and its clones through the same
// random registrations, rule additions and removals as a plain map model —
// enough resources that buckets hold several — and checks that every
// clone keeps reading the state it was taken at, that a rule slice handed
// out earlier never changes, and that a mutation copies only its own
// resource's rules.
func TestCloneIsCopyOnWrite(t *testing.T) {
	_, store, _, ids := fixture(t)
	alice := ids[paperfix.Alice]
	p := pathexpr.MustParse("friend+[1]")
	rng := rand.New(rand.NewSource(1))
	model := map[ResourceID][]string{} // resource → rule IDs, in order
	type frozen struct {
		view  *Store
		model map[ResourceID][]string
		rules map[ResourceID][]*Rule
	}
	var views []frozen
	check := func(s *Store, want map[ResourceID][]string) {
		t.Helper()
		if got := s.Resources(); len(got) != len(want) || !slices.IsSorted(got) {
			t.Fatalf("Resources() = %d entries (sorted=%v), want %d", len(got), slices.IsSorted(got), len(want))
		}
		for res, ruleIDs := range want {
			if o, ok := s.Owner(res); !ok || o != alice {
				t.Fatalf("%s: owner = (%d, %v)", res, o, ok)
			}
			var got []string
			for _, r := range s.RulesFor(res) {
				got = append(got, r.ID)
			}
			if !slices.Equal(got, ruleIDs) {
				t.Fatalf("%s: rules %v, want %v", res, got, ruleIDs)
			}
		}
	}
	for step := 0; step < 4000; step++ {
		res := ResourceID(fmt.Sprintf("res%04d", rng.Intn(1500)))
		ruleIDs, registered := model[res]
		switch op := rng.Intn(10); {
		case !registered:
			if err := store.Register(res, alice); err != nil {
				t.Fatal(err)
			}
			model[res] = nil
		case op < 5:
			r := &Rule{Resource: res, Owner: alice, Conditions: []Condition{{Path: p}}}
			if err := store.AddRule(r); err != nil {
				t.Fatal(err)
			}
			model[res] = append(slices.Clip(ruleIDs), r.ID)
		case op < 8 && len(ruleIDs) > 0:
			i := rng.Intn(len(ruleIDs))
			if !store.RemoveRule(res, ruleIDs[i]) {
				t.Fatalf("%s: rule %s not found", res, ruleIDs[i])
			}
			model[res] = slices.Delete(slices.Clone(ruleIDs), i, i+1)
		case len(ruleIDs) == 0:
			if !store.Unregister(res) {
				t.Fatalf("%s: unregister refused", res)
			}
			delete(model, res)
		}
		if step%500 == 499 {
			f := frozen{view: store.Clone(), model: maps.Clone(model), rules: map[ResourceID][]*Rule{}}
			for res := range model {
				f.rules[res] = f.view.RulesFor(res)
			}
			views = append(views, f)
		}
	}
	check(store, model)
	for _, f := range views {
		check(f.view, f.model)
		for res, rules := range f.rules {
			if now := f.view.RulesFor(res); len(now) != len(rules) || (len(now) > 0 && &now[0] != &rules[0]) {
				t.Fatalf("%s: a frozen view's rule slice was replaced", res)
			}
		}
	}
	// A clone is a store in its own right: mutating it leaves its source be.
	last := views[len(views)-1]
	if err := last.view.Register("only-in-clone", alice); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Owner("only-in-clone"); ok {
		t.Fatal("a clone's mutation reached the store it was cloned from")
	}
	check(store, model)
}
