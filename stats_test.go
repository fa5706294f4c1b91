package reachac

import "testing"

// TestStatsDelta: Delta must subtract the monotonic counters and carry
// the gauges — the contract acbench's per-scenario counter attribution
// rests on.
func TestStatsDelta(t *testing.T) {
	prev := Stats{
		Users: 10, Relationships: 20,
		Checks: 100, BatchChecks: 5, Audiences: 2,
		Mutations: 50, Batches: 30, Republications: 7, GraphRebases: 1,
		PlanCompiles: 5, PlanCacheEntries: 5,
		Checkpoints: 1, CheckpointsSkipped: 2,
		WALAppends: 40, WALFsyncs: 25, WALSegmentBytes: 111, WALSegmentSeq: 1,
	}
	cur := Stats{
		Users: 12, Relationships: 24, Durable: true,
		Checks: 350, BatchChecks: 9, Audiences: 6,
		Mutations: 80, Batches: 45, Republications: 9, GraphRebases: 3,
		PlanCompiles: 12, PlanCacheEntries: 3,
		Checkpoints: 2, CheckpointsSkipped: 5,
		WALAppends: 70, WALFsyncs: 31, WALSegmentBytes: 222, WALSegmentSeq: 2,
	}
	d := cur.Delta(prev)
	if d.Checks != 250 || d.BatchChecks != 4 || d.Audiences != 4 ||
		d.Mutations != 30 || d.Batches != 15 || d.Republications != 2 ||
		d.GraphRebases != 2 || d.PlanCompiles != 7 ||
		d.Checkpoints != 1 || d.CheckpointsSkipped != 3 ||
		d.WALAppends != 30 || d.WALFsyncs != 6 {
		t.Fatalf("counter deltas wrong: %+v", d)
	}
	// Gauges and identity fields carry the current values.
	if d.Users != 12 || d.Relationships != 24 || !d.Durable ||
		d.WALSegmentBytes != 222 || d.WALSegmentSeq != 2 ||
		d.PlanCacheEntries != 3 {
		t.Fatalf("gauges not carried: %+v", d)
	}
}

// TestStatsDeltaLive exercises Delta over a real network window.
func TestStatsDeltaLive(t *testing.T) {
	n := New()
	alice := n.MustAddUser("alice")
	bob := n.MustAddUser("bob")
	if err := n.Relate(alice, bob, "friend"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Share("photo", alice, "friend+[1]"); err != nil {
		t.Fatal(err)
	}
	before := n.Stats()
	for i := 0; i < 5; i++ {
		if _, err := n.CanAccess("photo", bob); err != nil {
			t.Fatal(err)
		}
	}
	d := n.Stats().Delta(before)
	if d.Checks != 5 {
		t.Fatalf("window checks = %d, want 5", d.Checks)
	}
	if d.Mutations != 0 {
		t.Fatalf("window mutations = %d, want 0", d.Mutations)
	}
}
