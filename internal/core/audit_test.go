//go:build !race

// The audit trail's allocation assertion reads runtime.MemStats, which the
// race detector's instrumentation perturbs; the non-race CI test run
// enforces it.
package core

import (
	"runtime"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/paperfix"
)

// TestAuditRingWrapsInPlace: once the trail holds its limit, recording
// overwrites the oldest decision in place — 4 096 decisions at the default
// limit allocate nothing, where an append-then-reslice trail reallocated it
// every limit decisions — and Decisions still lists the newest limit of
// them oldest first.
func TestAuditRingWrapsInPlace(t *testing.T) {
	_, store, eng, ids := fixture(t)
	alice := ids[paperfix.Alice]
	if err := store.Register("notes", alice); err != nil {
		t.Fatal(err)
	}
	if err := store.AddRule(&Rule{Resource: "notes", Owner: alice,
		Conditions: []Condition{{Path: paperfix.QFriendParentFriend()}}}); err != nil {
		t.Fatal(err)
	}
	reqs := make([]graph.NodeID, 0, len(paperfix.Names))
	for _, name := range paperfix.Names {
		reqs = append(reqs, ids[name])
	}
	const limit, decides = 1024, 4096
	seq := 0
	decide := func() {
		if _, err := eng.Decide("notes", reqs[seq%len(reqs)]); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	for seq < limit+1 { // fill the ring and wrap once: it is warm
		decide()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < decides; i++ {
		decide()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d warm decisions allocated %d objects, want 0", decides, n)
	}
	trail := eng.Audit()
	if len(trail) != limit {
		t.Fatalf("trail holds %d decisions, want %d", len(trail), limit)
	}
	for i, d := range trail {
		if want := reqs[(seq-limit+i)%len(reqs)]; d.Requester != want {
			t.Fatalf("trail[%d] is requester %d, want %d: not oldest first after wrap-around", i, d.Requester, want)
		}
	}
}
