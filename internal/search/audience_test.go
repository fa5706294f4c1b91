package search

import (
	"fmt"
	"math/rand"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/paperfix"
	"reachac/internal/pathexpr"
)

func TestAudienceSetPaperQueries(t *testing.T) {
	g := paperfix.Graph()
	e := New(g)
	alice := node(t, g, paperfix.Alice)
	david := node(t, g, paperfix.David)

	set, err := e.AudienceSet(alice, paperfix.Q1())
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || g.Node(set[0]).Name != paperfix.Fred {
		t.Fatalf("Q1 audience = %v", names(g, set))
	}

	set, err = e.AudienceSet(alice, paperfix.QFriendParentFriend())
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || g.Node(set[0]).Name != paperfix.George {
		t.Fatalf("f/p/f audience = %v", names(g, set))
	}

	set, err = e.AudienceSet(david, paperfix.QDavidConsidersFriend())
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Fatalf("considers-friend audience = %v", names(g, set))
	}
}

func names(g *graph.Graph, ids []graph.NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.Node(id).Name
	}
	return out
}

// TestAudienceSetMatchesPerPairLoop is the correctness property: the
// one-pass audience equals the set of members for which Reachable grants.
func TestAudienceSetMatchesPerPairLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	exprs := []string{
		"friend+[1,2]",
		"friend+[1]/colleague+[1]",
		"friend-[1,2]",
		"friend*[1,2]/parent+[1]",
		"colleague+[1,*]",
		"friend+[1,2]{age>=18}",
	}
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(14)
		g, _ := randomGraph(rng, n, 3)
		e := New(g)
		for _, expr := range exprs {
			p := pathexpr.MustParse(expr)
			for o := 0; o < n; o++ {
				owner := graph.NodeID(o)
				set, err := e.AudienceSet(owner, p)
				if err != nil {
					t.Fatal(err)
				}
				inSet := map[graph.NodeID]bool{}
				for _, id := range set {
					inSet[id] = true
				}
				for r := 0; r < n; r++ {
					rid := graph.NodeID(r)
					want, err := e.Reachable(owner, rid, p)
					if err != nil {
						t.Fatal(err)
					}
					if inSet[rid] != want {
						t.Fatalf("trial %d %s owner %d: member %d set=%v loop=%v",
							trial, expr, o, r, inSet[rid], want)
					}
				}
			}
		}
	}
}

func TestAudienceSetInvalid(t *testing.T) {
	g := paperfix.Graph()
	e := New(g)
	if _, err := e.AudienceSet(999, paperfix.Q1()); err == nil {
		t.Fatal("invalid owner accepted")
	}
	if _, err := e.AudienceSet(0, &pathexpr.Path{}); err == nil {
		t.Fatal("invalid path accepted")
	}
	set, err := e.AudienceSet(0, pathexpr.MustParse("enemy+[1]"))
	if err != nil || set != nil {
		t.Fatalf("unknown label: %v %v", set, err)
	}
}

// audCacheFixture builds an n-member ring of friend edges with a colleague
// chord from every even member, the graph most search tests run on.
func audCacheFixture(t *testing.T, n int) (*graph.Graph, []graph.NodeID) {
	t.Helper()
	g := graph.New()
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = g.MustAddNode(fmt.Sprintf("m%03d", i), nil)
	}
	for i := 0; i < n; i++ {
		g.MustAddEdge(ids[i], ids[(i+1)%n], "friend")
		if i%2 == 0 {
			g.MustAddEdge(ids[i], ids[(i+5)%n], "colleague")
		}
	}
	return g, ids
}

func mustPath(t *testing.T, s string) *pathexpr.Path {
	t.Helper()
	p, err := pathexpr.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sameIDs(a, b []graph.NodeID) bool {
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

// TestAudienceSetMapMatchesFlat runs the reference search (refSearch, a
// map-keyed BFS over the edge table) as an audience sweep and checks that
// it agrees with the flat collect path on every owner.
func TestAudienceSetMapMatchesFlat(t *testing.T) {
	g, ids := audCacheFixture(t, 24)
	e := New(g)
	for _, expr := range []string{
		"friend+[1,3]",
		"friend+[1,2]/colleague+[1]",
		"colleague-[1]/friend*[2]",
	} {
		p := mustPath(t, expr)
		pl, err := e.Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, owner := range ids[:6] {
			want, err := e.AudienceSet(owner, p)
			if err != nil {
				t.Fatal(err)
			}
			ref := refSearch(g, &pl.compiled, []uint64{packState(owner, 0, 0)}, query{target: graph.InvalidNode, collect: true})
			if !sameIDs(ref.members, want) {
				t.Fatalf("owner %d path %s: reference %v, flat %v", owner, expr, ref.members, want)
			}
		}
	}
}
