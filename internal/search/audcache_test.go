package search

import (
	"fmt"
	"math/rand"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// audCacheFixture builds a graph and a clone pair: mutations go to the
// primary, and the clone is advanced via recorded deltas the way snapshot
// republication does.
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

// TestAudienceCacheMatchesEngine checks the cached result equals a direct
// AudienceSet, on both the cold and the warm path.
func TestAudienceCacheMatchesEngine(t *testing.T) {
	g, ids := audCacheFixture(t, 40)
	ac := NewAudienceCache(g)
	e := New(g)
	paths := []*pathexpr.Path{
		mustPath(t, "friend+[1,3]"),
		mustPath(t, "friend+[1,2]/colleague+[1]"),
		mustPath(t, "colleague-[1]/friend*[2]"),
	}
	for round := 0; round < 2; round++ {
		for _, p := range paths {
			for _, owner := range []graph.NodeID{ids[0], ids[7], ids[39]} {
				want, err := e.AudienceSet(owner, p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ac.Audience(owner, p)
				if err != nil {
					t.Fatal(err)
				}
				if !sameIDs(got, want) {
					t.Fatalf("round %d owner %d path %s: cache %v, engine %v",
						round, owner, p, got, want)
				}
			}
		}
	}
	if ac.Len() != len(paths)*3 {
		t.Fatalf("cache holds %d entries, want %d", ac.Len(), len(paths)*3)
	}
}

// TestAudienceCacheAdvance drives a random delta stream through a clone's
// cache and asserts every advanced audience equals a from-scratch recompute
// on the advanced graph — the incremental-maintenance correctness contract.
func TestAudienceCacheAdvance(t *testing.T) {
	primary, ids := audCacheFixture(t, 32)
	clone := primary.Clone()
	ac := NewAudienceCache(clone)
	rng := rand.New(rand.NewSource(41))
	paths := []*pathexpr.Path{
		mustPath(t, "friend+[1,3]"),
		mustPath(t, "friend+[1,2]/colleague+[1]"),
		mustPath(t, "colleague-[1]/friend*[2]"),
		mustPath(t, "follows+[1,2]"), // label absent until mid-stream
	}
	owners := []graph.NodeID{ids[0], ids[9], ids[17]}
	version := primary.Version()

	warm := func() {
		for _, p := range paths {
			for _, o := range owners {
				if _, err := ac.Audience(o, p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	warm()

	labels := []string{"friend", "colleague", "follows"}
	for step := 0; step < 120; step++ {
		// Mutate the primary.
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			from := ids[rng.Intn(len(ids))]
			to := ids[rng.Intn(len(ids))]
			_, _ = primary.AddEdge(from, to, labels[rng.Intn(len(labels))])
		case 6, 7:
			if e := randomLiveEdge(primary, rng); e != graph.InvalidEdge {
				if err := primary.RemoveEdge(e); err != nil {
					t.Fatal(err)
				}
			}
		case 8:
			id := primary.MustAddNode(fmt.Sprintf("new%04d", step), nil)
			primary.MustAddEdge(ids[rng.Intn(len(ids))], id, "friend")
			ids = append(ids, id)
		case 9:
			primary.Rebase()
		}
		// Advance the clone exactly like snapshot republication: apply the
		// recorded deltas to the graph, then Advance the cache.
		deltas, ok := primary.ChangesSince(version)
		if !ok {
			t.Fatal("delta log trimmed inside the default window")
		}
		version = primary.Version()
		for _, d := range deltas {
			if err := clone.Apply(d); err != nil {
				t.Fatal(err)
			}
		}
		ac.Advance(deltas)
		// Every cached audience must equal a from-scratch recompute.
		fresh := New(clone)
		for _, p := range paths {
			for _, o := range owners {
				want, err := fresh.AudienceSet(o, p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ac.Audience(o, p)
				if err != nil {
					t.Fatal(err)
				}
				if !sameIDs(got, want) {
					t.Fatalf("step %d owner %d path %s: incremental %v, recompute %v",
						step, o, p, got, want)
				}
			}
		}
	}
}

// randomLiveEdge picks a uniformly random live edge, or InvalidEdge when the
// graph has none.
func randomLiveEdge(g *graph.Graph, rng *rand.Rand) graph.EdgeID {
	var live []graph.EdgeID
	g.Edges(func(e graph.Edge) bool {
		live = append(live, e.ID)
		return true
	})
	if len(live) == 0 {
		return graph.InvalidEdge
	}
	return live[rng.Intn(len(live))]
}

// TestAudienceCacheResultImmutable documents the aliasing contract: repeated
// warm hits return the same backing slice, so callers must copy before
// mutating.
func TestAudienceCacheResultImmutable(t *testing.T) {
	g, ids := audCacheFixture(t, 16)
	ac := NewAudienceCache(g)
	p := mustPath(t, "friend+[1,2]")
	a, err := ac.Audience(ids[0], p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ac.Audience(ids[0], p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("fixture audience is empty")
	}
	if &a[0] != &b[0] {
		t.Fatal("warm hits should share the cached backing array")
	}
}

// TestAudienceSetMapMatchesFlat exercises the map kernel (the fallback when
// a state space exceeds the flat layout's bounds) as an audience sweep
// directly and checks it agrees with the flat collect path on every owner.
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
			sc := &scratch{
				member:   make([]uint64, (g.NumNodes()+63)/64),
				frontier: []uint64{packState(owner, 0, 0)},
			}
			e.runMap(&pl.compiled, sc, query{target: graph.InvalidNode, collect: true})
			if got := appendBits(nil, sc.member); !sameIDs(got, want) {
				t.Fatalf("owner %d path %s: map %v, flat %v", owner, expr, got, want)
			}
		}
	}
}

// TestAudienceCacheGraph covers the accessor used by snapshot wiring.
func TestAudienceCacheGraph(t *testing.T) {
	g, _ := audCacheFixture(t, 4)
	if NewAudienceCache(g).Graph() != g {
		t.Fatal("Graph() must return the constructor's graph")
	}
}
