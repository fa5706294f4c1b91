package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/paperfix"
	"reachac/internal/pathexpr"
	"reachac/internal/search"
)

func TestPolicyRoundTrip(t *testing.T) {
	g, store, _, ids := fixture(t)
	alice := ids[paperfix.Alice]
	david := ids[paperfix.David]
	if err := store.Register("alice/album", alice); err != nil {
		t.Fatal(err)
	}
	if err := store.AddRule(&Rule{ID: "fof", Resource: "alice/album", Owner: alice,
		Conditions: []Condition{{Path: pathexpr.MustParse("friend+[1,2]")}}}); err != nil {
		t.Fatal(err)
	}
	if err := store.AddRule(&Rule{ID: "both", Resource: "alice/album", Owner: alice,
		Conditions: []Condition{
			{Path: pathexpr.MustParse("friend+[1,3]")},
			{Path: pathexpr.MustParse(`colleague+[1]{age>=18}`)},
		}}); err != nil {
		t.Fatal(err)
	}
	if err := store.Register("david/jokes", david); err != nil {
		t.Fatal(err)
	}
	if err := store.AddRule(&Rule{ID: "considers", Resource: "david/jokes", Owner: david,
		Conditions: []Condition{{Path: pathexpr.MustParse("friend-[1]")}}}); err != nil {
		t.Fatal(err)
	}
	// An empty resource (registered, no rules) must round-trip too.
	if err := store.Register("alice/empty", alice); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := store.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStore(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}

	// Same resources, owners and rules.
	if len(got.Resources()) != 3 {
		t.Fatalf("resources = %v", got.Resources())
	}
	for _, res := range store.Resources() {
		wo, _ := store.Owner(res)
		go_, ok := got.Owner(res)
		if !ok || go_ != wo {
			t.Fatalf("owner of %q lost", res)
		}
		wr := store.RulesFor(res)
		gr := got.RulesFor(res)
		if len(wr) != len(gr) {
			t.Fatalf("%q rules: %d vs %d", res, len(wr), len(gr))
		}
		for i := range wr {
			if wr[i].ID != gr[i].ID || len(wr[i].Conditions) != len(gr[i].Conditions) {
				t.Fatalf("%q rule %d mismatch", res, i)
			}
			for j := range wr[i].Conditions {
				if wr[i].Conditions[j].Path.String() != gr[i].Conditions[j].Path.String() {
					t.Fatalf("%q rule %d condition %d mismatch", res, i, j)
				}
			}
		}
	}

	// Decisions identical through both stores.
	eng1 := NewEngine(store, search.New(g), -1)
	eng2 := NewEngine(got, search.New(g), -1)
	for _, res := range store.Resources() {
		for _, name := range paperfix.Names {
			d1, err := eng1.Decide(res, ids[name])
			if err != nil {
				t.Fatal(err)
			}
			d2, err := eng2.Decide(res, ids[name])
			if err != nil {
				t.Fatal(err)
			}
			if d1.Effect != d2.Effect {
				t.Fatalf("decision drift on (%s,%s)", res, name)
			}
		}
	}
}

func TestReadStoreRejectsGarbage(t *testing.T) {
	g, _, _, _ := fixture(t)
	cases := []string{
		"",
		"junk",
		`{"magic":"nope","resources":0}` + "\n",
		`{"magic":"reachac-policy-v1","resources":1}` + "\n", // truncated
		`{"magic":"reachac-policy-v1","resources":1}` + "\n" +
			`{"resource":"r","owner":999}` + "\n", // owner not in graph
		`{"magic":"reachac-policy-v1","resources":1}` + "\n" +
			`{"resource":"r","owner":0,"rules":[{"id":"x","conditions":["///"]}]}` + "\n", // bad path
		`{"magic":"reachac-policy-v1","resources":1}` + "\n" +
			`{"resource":"r","owner":0,"rules":[{"id":"x","conditions":[]}]}` + "\n", // no conditions
	}
	for i, c := range cases {
		if _, err := ReadStore(strings.NewReader(c), g); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAudience(t *testing.T) {
	g, store, _, ids := fixture(t)
	alice := ids[paperfix.Alice]
	if err := store.Register("r", alice); err != nil {
		t.Fatal(err)
	}
	if err := store.AddRule(&Rule{Resource: "r", Owner: alice,
		Conditions: []Condition{{Path: paperfix.QFriendParentFriend()}}}); err != nil {
		t.Fatal(err)
	}
	audience, err := store.Audience("r", search.New(g).AudienceSet)
	if err != nil {
		t.Fatal(err)
	}
	if len(audience) != 1 || g.Node(audience[0]).Name != paperfix.George {
		names := make([]string, len(audience))
		for i, id := range audience {
			names[i] = g.Node(id).Name
		}
		t.Fatalf("audience = %v, want [George]", names)
	}
	if _, err := store.Audience("ghost", search.New(g).AudienceSet); err == nil {
		t.Fatal("unknown resource accepted")
	}
}

// perMemberAudience is the reference Store.Audience's set algebra is
// compared against: one reachability query per member, per rule condition.
func perMemberAudience(t *testing.T, s *Store, res ResourceID, g *graph.Graph, eval Evaluator) []graph.NodeID {
	t.Helper()
	owner, ok := s.Owner(res)
	if !ok {
		t.Fatalf("resource %q not registered", res)
	}
	out := []graph.NodeID{}
	g.Nodes(func(n graph.Node) bool {
		if n.ID == owner {
			return true
		}
		for _, rule := range s.RulesFor(res) {
			valid := true
			for _, cond := range rule.Conditions {
				ok, err := eval.Reachable(rule.Owner, n.ID, cond.Path)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					valid = false
					break
				}
			}
			if valid {
				out = append(out, n.ID)
				return true
			}
		}
		return true
	})
	return out
}

func TestAudienceFastMatchesSlow(t *testing.T) {
	g, store, _, ids := fixture(t)
	alice := ids[paperfix.Alice]
	if err := store.Register("multi", alice); err != nil {
		t.Fatal(err)
	}
	// Two alternative rules, one of them conjunctive.
	if err := store.AddRule(&Rule{ID: "a", Resource: "multi", Owner: alice,
		Conditions: []Condition{
			{Path: pathexpr.MustParse("friend+[1,3]")},
			{Path: pathexpr.MustParse("friend+[1]/parent+[1]/friend+[1]")},
		}}); err != nil {
		t.Fatal(err)
	}
	if err := store.AddRule(&Rule{ID: "b", Resource: "multi", Owner: alice,
		Conditions: []Condition{{Path: pathexpr.MustParse("colleague+[1]")}}}); err != nil {
		t.Fatal(err)
	}
	eng := search.New(g)
	fast, err := store.Audience("multi", eng.AudienceSet)
	if err != nil {
		t.Fatal(err)
	}
	if slow := perMemberAudience(t, store, "multi", g, eng); !slices.Equal(fast, slow) {
		t.Fatalf("set algebra %v vs per-member %v", fast, slow)
	}
	// Expected audience: George (rule a) ∪ David (rule b).
	if len(fast) != 2 {
		t.Fatalf("audience = %v", fast)
	}
}
