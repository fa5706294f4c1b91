package ring

import (
	"fmt"
	"testing"
)

func TestNewRejectsZeroShards(t *testing.T) {
	if _, err := New(0, 8); err == nil {
		t.Fatal("New(0, 8) succeeded, want error")
	}
	if _, err := New(-3, 8); err == nil {
		t.Fatal("New(-3, 8) succeeded, want error")
	}
}

// A ring's size comes from the wire on a shard: New must refuse, before
// allocating, any product of shards and vnodes beyond maxPoints, including
// one that overflows.
func TestNewRejectsOversizedRing(t *testing.T) {
	for _, tc := range [][2]int{{maxPoints/DefaultVNodes + 1, 0}, {1e8, 0}, {2, maxPoints}, {1 << 40, 1 << 40}} {
		if _, err := New(tc[0], tc[1]); err == nil {
			t.Errorf("New(%d, %d) succeeded, want error", tc[0], tc[1])
		}
	}
	if _, err := New(maxPoints/DefaultVNodes, 0); err != nil {
		t.Fatalf("New at the bound: %v", err)
	}
}

func TestDefaultVNodes(t *testing.T) {
	r, err := New(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.VNodes() != DefaultVNodes {
		t.Fatalf("VNodes() = %d, want DefaultVNodes (%d)", r.VNodes(), DefaultVNodes)
	}
	if r.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", r.Shards())
	}
}

// Two rings built from the same parameters must place every name
// identically — the router and the stateless shards depend on exactly this
// agreement instead of a shipped membership table.
func TestOwnerDeterministic(t *testing.T) {
	a, err := New(5, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(5, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		name := fmt.Sprintf("user-%04d", i)
		oa, ob := a.Owner(name), b.Owner(name)
		if oa != ob {
			t.Fatalf("Owner(%q): %d vs %d from identical rings", name, oa, ob)
		}
		if oa < 0 || oa >= 5 {
			t.Fatalf("Owner(%q) = %d, outside [0,5)", name, oa)
		}
	}
}

func TestSingleShardOwnsEverything(t *testing.T) {
	r, err := New(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got := r.Owner(fmt.Sprintf("n%d", i)); got != 0 {
			t.Fatalf("Owner = %d with one shard, want 0", got)
		}
	}
}

// With the default vnode count the placement should be within a reasonable
// band of uniform — the property the vnode count was chosen for.
func TestOwnershipRoughlyBalanced(t *testing.T) {
	const shards, names = 4, 8000
	r, err := New(shards, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	for i := 0; i < names; i++ {
		counts[r.Owner(fmt.Sprintf("member-%05d", i))]++
	}
	for s, c := range counts {
		frac := float64(c) / names
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("shard %d owns %.1f%% of names (counts %v) — placement badly skewed", s, 100*frac, counts)
		}
	}
}

// Growing the ring by one shard must move only names, never shuffle the
// ownership of the ones both rings place on a surviving shard differently
// than consistent hashing allows: a name either keeps its owner or moves to
// the NEW shard.
func TestGrowthMovesNamesOnlyToNewShard(t *testing.T) {
	old, err := New(4, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := New(5, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 4000; i++ {
		name := fmt.Sprintf("acct-%05d", i)
		a, b := old.Owner(name), grown.Owner(name)
		if a == b {
			continue
		}
		moved++
		if b != 4 {
			t.Fatalf("Owner(%q) moved %d→%d when adding shard 4 — consistent hashing must only move names to the new shard", name, a, b)
		}
	}
	if moved == 0 {
		t.Fatal("no names moved to the new shard — growth did nothing")
	}
	if frac := float64(moved) / 4000; frac > 0.40 {
		t.Fatalf("%.1f%% of names moved when adding one shard to four — far more than the ~1/5 consistent hashing promises", 100*frac)
	}
}
