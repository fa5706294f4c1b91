package search

import (
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

// TestScratchLeftAllZero runs point queries (found early and exhausted) and
// audience sweeps for plans of different state counts over ONE scratch, and
// checks after every search that the scratch is all-zero again and that the
// answer agrees with the map-based search, which shares no state with it. A
// search that left a bit behind would fail the first check at once and the
// second on a later query that finds the state already visited.
func TestScratchLeftAllZero(t *testing.T) {
	g, ids := audCacheFixture(t, 60)
	g.CSR()
	e := New(g)
	sc := new(scratch)
	hits, misses := 0, 0
	for round := 0; round < 2; round++ {
		for _, expr := range scratchExprs {
			p := mustPath(t, expr)
			pl, err := e.Plan(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, owner := range ids[:5] {
				for _, req := range ids[:24] {
					got := e.reachFlat(sc, &pl.compiled, owner, req)
					if !allZero(sc) {
						t.Fatalf("%s %d→%d: scratch not all-zero after reachFlat", expr, owner, req)
					}
					_, want, err := e.Witness(owner, req, p)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s %d→%d: flat %v, map-based %v", expr, owner, req, got, want)
					}
					if got {
						hits++
					} else {
						misses++
					}
				}
				got := e.audienceFlat(sc, &pl.compiled, nil, owner)
				if !allZero(sc) {
					t.Fatalf("%s from %d: scratch not all-zero after audienceFlat", expr, owner)
				}
				if want := e.audienceSetMap(pl.steps, owner); !sameIDs(got, want) {
					t.Fatalf("%s from %d: flat audience %v, map-based %v", expr, owner, got, want)
				}
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("fixture is one-sided: %d hits, %d misses", hits, misses)
	}
}

// TestPooledScratchAllZero drives the public entry points that borrow from
// scratchPool — including the returns that never reach a search — and after
// each one inspects what the pool hands out.
func TestPooledScratchAllZero(t *testing.T) {
	g, ids := audCacheFixture(t, 60)
	g.CSR()
	e := New(g)
	ac := NewAudienceCache(g)
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
	if ok, err := e.ReachableReverse(ids[0], ids[3], deep); err != nil {
		t.Fatalf("ReachableReverse = (%v, %v)", ok, err)
	}
	check("ReachableReverse")
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
	if aud, err := ac.Audience(ids[2], deep); err != nil || len(aud) == 0 {
		t.Fatalf("Audience = (%v, %v), want members", aud, err)
	}
	check("AudienceCache.Audience")
}
