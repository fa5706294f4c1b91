package search

import (
	"fmt"
	"slices"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// allZero reports whether both bitsets of sc are zero over their whole
// capacity, the state a parked scratch must be in.
func allZero(sc *scratch) bool {
	for _, b := range [][]uint64{sc.visited[:cap(sc.visited)], sc.member[:cap(sc.member)]} {
		for _, w := range b {
			if w != 0 {
				return false
			}
		}
	}
	return true
}

// scratchExprs have different per-node state counts S (2 to 7), so one
// scratch serves differently laid out visited sets back to back.
var scratchExprs = []string{
	"friend+[1]",
	"friend+[1,4]",
	"friend*[2,*]",
	"friend+[1,2]/colleague+[1]",
	"colleague-[1]/friend*[1,3]",
	"friend+[1,3]/colleague*[1,2]",
}

// outcome is what one search reports: whether it reached its target, the
// members it collected and, sorted, the states it marked and its exits.
type outcome struct {
	found          bool
	members        []graph.NodeID
	retired, exits []uint64
}

func sortedStates(packed ...[]uint64) []uint64 {
	out := slices.Concat(packed...)
	slices.Sort(out)
	return out
}

// TestScratchLeftAllZero runs every kind of search the entry points make —
// point queries found early and exhausted, audience sweeps, multi-state
// expansions — on the flat kernel over ONE scratch. After each it checks
// that the scratch is all-zero again, and that the map kernel, which shares
// no state with it, answers the same on the same inputs; the public entry
// points must answer as the map kernel does too. A search that left a bit
// behind would fail the first check at once and the second on a later query
// that finds the state already visited. Every witness is verified.
func TestScratchLeftAllZero(t *testing.T) {
	g, ids := audCacheFixture(t, 60)
	g.CSR()
	e := New(g)
	sc := new(scratch)
	// kernels runs q from seeds on both kernels, fails the test unless they
	// agree, and returns the map kernel's outcome. An early exit leaves
	// behind whatever its adjacency order reached, so only an exhausted
	// search must mark the same states and members on both.
	kernels := func(what string, c *compiled, seeds []uint64, q query) outcome {
		t.Helper()
		if !c.flatOK(g) {
			t.Fatalf("%s: the fixture does not fit the flat kernel", what)
		}
		sc.member = sized(sc.member, (g.NumNodes()+63)/64)
		sc.frontier = append(sc.frontier[:0], seeds...)
		flat := outcome{found: e.run(c, sc, q)}
		flat.retired, flat.exits = sortedStates(sc.frontier, sc.exits), sortedStates(sc.exits)
		flat.members = takeBits(nil, sc.member)
		if !allZero(sc) {
			t.Fatalf("%s: scratch not all-zero after the flat kernel", what)
		}
		ms := &scratch{member: make([]uint64, len(sc.member)), frontier: slices.Clone(seeds)}
		var m outcome
		m.found, _, _ = e.runMap(c, ms, q)
		m.retired, m.exits = sortedStates(ms.frontier, ms.exits), sortedStates(ms.exits)
		m.members = appendBits(nil, ms.member)
		if flat.found != m.found {
			t.Fatalf("%s: flat found %v, map %v", what, flat.found, m.found)
		}
		if !m.found && (!sameIDs(flat.members, m.members) || !slices.Equal(flat.retired, m.retired) || !slices.Equal(flat.exits, m.exits)) {
			t.Fatalf("%s: flat marked %d states, %d exits, members %v; map %d, %d, %v",
				what, len(flat.retired), len(flat.exits), flat.members, len(m.retired), len(m.exits), m.members)
		}
		return m
	}

	hits, misses := 0, 0
	for round := 0; round < 2; round++ {
		for _, expr := range scratchExprs {
			p := mustPath(t, expr)
			pl, err := e.Plan(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, owner := range ids[:5] {
				seed := []uint64{packState(owner, 0, 0)}
				for _, req := range ids[:24] {
					what := fmt.Sprintf("%s %d→%d", expr, owner, req)
					want := kernels(what, &pl.compiled, seed, query{target: req}).found
					hops, ok, err := e.Witness(owner, req, p)
					if err != nil {
						t.Fatal(err)
					}
					if ok != want {
						t.Fatalf("%s: Witness %v, map kernel %v", what, ok, want)
					}
					if ok {
						if err := VerifyWitness(g, owner, req, p, hops); err != nil {
							t.Fatalf("%s: witness invalid: %v", what, err)
						}
						hits++
					} else {
						misses++
					}
					got, err := e.Reachable(owner, req, p)
					if err != nil {
						t.Fatal(err)
					}
					fwd, rev := bothWays(t, e, owner, req, p)
					if got != want || fwd != want || rev != want {
						t.Fatalf("%s: Reachable %v, forward %v, reversed %v, map kernel %v", what, got, fwd, rev, want)
					}
				}
				what := fmt.Sprintf("%s from %d", expr, owner)
				want := kernels(what, &pl.compiled, seed, query{target: graph.InvalidNode, collect: true}).members
				if got, err := e.AudienceSet(owner, p); err != nil || !sameIDs(got, want) {
					t.Fatalf("%s: AudienceSet (%v, %v), map kernel %v", what, got, err, want)
				}
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("fixture is one-sided: %d hits, %d misses", hits, misses)
	}

	// Expand's inputs in full: seeds anywhere in the step machine, an early
	// exit, and a foreign test.
	upper := func(n graph.NodeID) bool { return n >= ids[30] }
	for _, tc := range []struct {
		name    string
		expr    string
		seeds   []State
		target  graph.NodeID
		foreign func(graph.NodeID) bool
	}{
		{"multi-state seeds", "friend+[1,3]/colleague*[1,2]",
			[]State{{ids[0], 0, 0}, {ids[10], 0, 2}, {ids[20], 1, 1}, {ids[0], 0, 0}}, graph.InvalidNode, nil},
		{"foreign upper half", "friend+[1,3]/colleague*[1,2]",
			[]State{{ids[0], 0, 0}, {ids[28], 0, 1}, {ids[40], 1, 0}}, graph.InvalidNode, upper},
		{"unbounded at its canonical depth", "friend*[2,*]/colleague+[1]",
			[]State{{ids[3], 0, 2}, {ids[45], 1, 0}}, graph.InvalidNode, upper},
		{"absent label", "friend+[1,2]/enemy+[1]/friend+[1]",
			[]State{{ids[5], 0, 0}, {ids[7], 2, 0}}, graph.InvalidNode, nil},
		{"early exit", "friend+[1,4]",
			[]State{{ids[0], 0, 0}, {ids[30], 0, 1}}, ids[33], nil},
		{"target missed", "friend+[1,4]",
			[]State{{ids[0], 0, 0}, {ids[30], 0, 1}}, ids[50], nil},
		{"target behind the boundary", "friend+[1,4]",
			[]State{{ids[27], 0, 0}}, ids[31], upper},
	} {
		pl, err := e.Plan(mustPath(t, tc.expr))
		if err != nil {
			t.Fatal(err)
		}
		var seeds []uint64
		for _, s := range tc.seeds {
			seeds = append(seeds, packState(s.Node, int32(s.Step), int32(s.D)))
		}
		want := kernels(tc.name, &pl.compiled, seeds, query{target: tc.target, collect: true, foreign: tc.foreign})
		x := e.Expand(pl, tc.seeds, tc.target, tc.foreign)
		var exits []uint64
		for _, s := range x.Exits {
			exits = append(exits, packState(s.Node, int32(s.Step), int32(s.D)))
		}
		if x.Found != want.found || !want.found && (!sameIDs(x.Members, want.members) ||
			!slices.Equal(sortedStates(exits), want.exits)) {
			t.Fatalf("%s: Expand found %v, members %v, %d exits; map kernel %v, %v, %d",
				tc.name, x.Found, x.Members, len(x.Exits), want.found, want.members, len(want.exits))
		}
		if tc.foreign != nil && !want.found && len(want.exits) == 0 {
			t.Fatalf("%s: the foreign test retired nothing", tc.name)
		}
	}
}

// TestPooledScratchAllZero drives the public entry points that borrow from
// scratchPool — including the returns that never reach a search — and after
// each one inspects what the pool hands out.
func TestPooledScratchAllZero(t *testing.T) {
	g, ids := audCacheFixture(t, 60)
	g.CSR()
	e := New(g)
	check := func(what string) {
		t.Helper()
		var taken []*scratch
		for i := 0; i < 4; i++ {
			sc := scratchPool.Get().(*scratch)
			if !allZero(sc) {
				t.Fatalf("after %s: pooled scratch is not all-zero", what)
			}
			taken = append(taken, sc)
		}
		for _, sc := range taken {
			scratchPool.Put(sc)
		}
	}
	deep := mustPath(t, "friend+[1,3]/colleague*[1,2]")
	if ok, err := e.Reachable(ids[0], ids[1], mustPath(t, "friend+[1,4]")); err != nil || !ok {
		t.Fatalf("Reachable = (%v, %v), want found", ok, err)
	}
	check("Reachable, found early")
	if ok, err := e.Reachable(ids[0], ids[30], deep); err != nil || ok {
		t.Fatalf("Reachable = (%v, %v), want not found", ok, err)
	}
	check("Reachable, not found")
	bothWays(t, e, ids[0], ids[3], deep)
	check("forward and reversed")
	if ok, err := e.Reachable(ids[0], ids[1], mustPath(t, "enemy+[1,2]")); err != nil || ok {
		t.Fatalf("Reachable over an absent label = (%v, %v)", ok, err)
	}
	check("Reachable, label missing")
	if _, err := e.Reachable(ids[0], graph.NodeID(9999), deep); err == nil {
		t.Fatal("Reachable accepted an invalid node")
	}
	if _, err := e.Reachable(ids[0], ids[1], &pathexpr.Path{}); err == nil {
		t.Fatal("Reachable accepted an empty path")
	}
	check("Reachable, error returns")
	if aud, err := e.AudienceSet(ids[0], deep); err != nil || len(aud) == 0 {
		t.Fatalf("AudienceSet = (%v, %v), want members", aud, err)
	}
	check("AudienceSet")
}
