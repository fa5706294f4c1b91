package reachac

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"reachac/internal/core"
	"reachac/internal/graph"
)

// publish forces a publication via a read and returns the published
// snapshot.
func publish(t *testing.T, n *Network) *snapshot {
	t.Helper()
	if _, err := n.CanAccess("r", 0); err != nil {
		t.Fatal(err)
	}
	return n.snap.Load()
}

// TestDeltaAdvanceRecyclesClone pins the recycling: after two publications
// the retired clone is taken from the pool and fast-forwarded instead of
// re-cloned, and its search engine survives with it.
func TestDeltaAdvanceRecyclesClone(t *testing.T) {
	n := New()
	ids := make([]UserID, 8)
	for i := range ids {
		ids[i] = n.MustAddUser(fmt.Sprintf("u%d", i))
	}
	// The relationship type exists before the first publication, which
	// rebases; a new type would rebase again.
	if err := n.Relate(ids[6], ids[7], "friend"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Share("r", ids[0], "friend+[1,2]"); err != nil {
		t.Fatal(err)
	}
	s1 := publish(t, n)
	if err := n.Relate(ids[0], ids[1], "friend"); err != nil {
		t.Fatal(err)
	}
	s2 := publish(t, n)
	if s2 == s1 || s2.g == s1.g {
		t.Fatal("graph mutation must publish a fresh clone")
	}
	if err := n.Relate(ids[1], ids[2], "friend"); err != nil {
		t.Fatal(err)
	}
	s3 := publish(t, n)
	if s3.g != s1.g {
		t.Fatal("third publication should delta-advance the retired clone")
	}
	if s3.search != s1.search {
		t.Fatal("the search engine should carry over with its clone")
	}
	if s3.version != n.g.Version() {
		t.Fatalf("advanced snapshot at version %d, master at %d", s3.version, n.g.Version())
	}
	// The advanced clone must actually contain the new relationship.
	if d, err := n.CanAccess("r", ids[2]); err != nil || d.Effect != Allow {
		t.Fatalf("friend-of-friend via advanced clone = (%v, %v)", d.Effect, err)
	}
	// And it continues: the next mutation takes s2's clone.
	if err := n.Unrelate(ids[1], ids[2], "friend"); err != nil {
		t.Fatal(err)
	}
	s4 := publish(t, n)
	if s4.g != s2.g {
		t.Fatal("fourth publication should recycle the second clone")
	}
	if d, err := n.CanAccess("r", ids[2]); err != nil || d.Effect != Deny {
		t.Fatalf("removed relationship still grants = (%v, %v)", d.Effect, err)
	}
}

// TestPolicyOnlyPublicationShares pins that a policy-only change keeps
// sharing the clone and search engine, and that the shared clone is never
// offered for stealing.
func TestPolicyOnlyPublicationShares(t *testing.T) {
	n := New()
	a := n.MustAddUser("a")
	b := n.MustAddUser("b")
	if err := n.Relate(a, b, "friend"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Share("r", a, "friend+[1]"); err != nil {
		t.Fatal(err)
	}
	s1 := publish(t, n)
	if _, err := n.Share("r", a, "friend+[1,2]"); err != nil {
		t.Fatal(err)
	}
	s2 := publish(t, n)
	if s2 == s1 || s2.g != s1.g || s2.search != s1.search {
		t.Fatal("policy-only change must share clone and search engine")
	}
	if slices.Contains(n.spares, s1) {
		t.Fatal("a snapshot sharing the published clone must not be parked")
	}
}

// TestDeltaWindowOverflowFallsBack pins the bounded-log fallback: when more
// mutations land than the window retains, publication falls back to a full
// clone and decisions stay exact.
func TestDeltaWindowOverflowFallsBack(t *testing.T) {
	n := New()
	ids := make([]UserID, 4)
	for i := range ids {
		ids[i] = n.MustAddUser(fmt.Sprintf("u%d", i))
	}
	n.Graph().SetDeltaLogLimit(4)
	if _, err := n.Share("r", ids[0], "friend+[1]"); err != nil {
		t.Fatal(err)
	}
	s1 := publish(t, n)
	_ = s1
	if err := n.Relate(ids[0], ids[1], "friend"); err != nil {
		t.Fatal(err)
	}
	publish(t, n)
	// Blow past the window (limit 4, trims at 8): 20 node additions.
	for i := 0; i < 20; i++ {
		n.MustAddUser(fmt.Sprintf("extra%02d", i))
	}
	s3 := publish(t, n)
	if s3.g == s1.g {
		t.Fatal("overflowed window must not delta-advance the old clone")
	}
	if d, err := n.CanAccess("r", ids[1]); err != nil || d.Effect != Allow {
		t.Fatalf("decision after overflow fallback = (%v, %v)", d.Effect, err)
	}
}

// TestPublishCompactsTombstones pins the full-rebuild compaction: a batch
// of Unrelate churn past the overlay bound leaves the master with zero
// tombstones when it ends, before any publication, and the next
// publication decides on the compacted graph.
func TestPublishCompactsTombstones(t *testing.T) {
	n := New()
	const members = 600
	ids := make([]UserID, members)
	for i := range ids {
		ids[i] = n.MustAddUser(fmt.Sprintf("u%02d", i))
	}
	n.Graph().SetDeltaLogLimit(-1) // force the full-rebuild path
	for i := 0; i < members-1; i++ {
		if err := n.Relate(ids[i], ids[i+1], "friend"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Share("r", ids[0], "friend+[1]"); err != nil {
		t.Fatal(err)
	}
	rebases := n.Stats().GraphRebases
	err := n.Batch(func(tx *Tx) error {
		for i := 0; i < members-1; i++ {
			if err := tx.Unrelate(ids[i], ids[i+1], "friend"); err != nil {
				return err
			}
		}
		if got := n.Graph().NumTombstones(); got != members-1 {
			t.Errorf("tombstones within the batch = %d, want %d", got, members-1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Graph().NumTombstones(); got != 0 || n.Stats().GraphRebases != rebases+1 {
		t.Fatalf("the batch left %d tombstones after %d rebases", got, n.Stats().GraphRebases-rebases)
	}
	publish(t, n)
	if got := n.Graph().NumTombstones(); got != 0 {
		t.Fatalf("publication left %d tombstones", got)
	}
	if d, err := n.CanAccess("r", ids[1]); err != nil || d.Effect != Deny {
		t.Fatalf("decision after compaction = (%v, %v)", d.Effect, err)
	}
}

// TestRelateMutualRollback pins the half-application fix: when the second
// direction fails, the first is rolled back.
func TestRelateMutualRollback(t *testing.T) {
	n := New()
	a := n.MustAddUser("a")
	b := n.MustAddUser("b")
	if err := n.Relate(b, a, "friend"); err != nil {
		t.Fatal(err)
	}
	err := n.RelateMutual(a, b, "friend")
	if !errors.Is(err, ErrDuplicateRelationship) {
		t.Fatalf("RelateMutual over an existing reverse edge: %v", err)
	}
	if n.Graph().HasEdge(a, b, "friend") {
		t.Fatal("first direction not rolled back")
	}
	if !n.Graph().HasEdge(b, a, "friend") {
		t.Fatal("pre-existing edge must survive the rollback")
	}
	// And the success path still works.
	c := n.MustAddUser("c")
	if err := n.RelateMutual(a, c, "friend"); err != nil {
		t.Fatal(err)
	}
	if !n.Graph().HasEdge(a, c, "friend") || !n.Graph().HasEdge(c, a, "friend") {
		t.Fatal("mutual relationship incomplete")
	}
}

// ringNet builds a friend ring of the given size with "r" shared by member
// 0 under friend+[1,3], publishes its snapshot and returns the member IDs.
func ringNet(t *testing.T, members int) (*Network, []UserID) {
	t.Helper()
	n := New()
	ids := make([]UserID, members)
	for i := range ids {
		ids[i] = n.MustAddUser(fmt.Sprintf("u%02d", i))
	}
	for i := range ids {
		if err := n.Relate(ids[i], ids[(i+1)%members], "friend"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Share("r", ids[0], "friend+[1,3]"); err != nil {
		t.Fatal(err)
	}
	n.publish()
	return n, ids
}

// TestPinnedReaderKeepsPublicationIncremental holds a View across 200 graph
// publications, then re-pins one every tenth
// publication for 200 more: a pinned snapshot parks in the pool instead of
// forcing a rebuild, every decision equals a from-scratch network's over
// the same graph, and after Close the parked clone is advanced again.
func TestPinnedReaderKeepsPublicationIncremental(t *testing.T) {
	t.Parallel()
	// The subtest is named after the engine that answers: the online search.
	t.Run("online-bfs", pinnedReaderKeepsPublicationIncremental)
}

func pinnedReaderKeepsPublicationIncremental(t *testing.T) {
	n, ids := ringNet(t, 16)
	toggle := func(i int) {
		t.Helper()
		var err error
		if i%2 == 0 {
			err = n.Relate(ids[2], ids[9], "friend")
		} else {
			err = n.Unrelate(ids[2], ids[9], "friend")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// Warm: a network that has published twice holds two clones, the
	// published one and a spare. The reader below costs the third,
	// which is the one rebuild allowed.
	for i := 0; i < 2; i++ {
		toggle(i)
		publish(t, n)
	}
	v, err := n.View()
	if err != nil {
		t.Fatal(err)
	}
	pinned, pinnedAt := v.s.g, v.s.g.Version()
	before := n.Stats()
	for i := 0; i < 200; i++ {
		toggle(i)
		req := ids[(i*7)%len(ids)]
		got, err := n.CanAccess("r", req)
		if err != nil {
			t.Fatal(err)
		}
		ref := FromGraph(n.Graph().Clone())
		if _, err := ref.Share("r", ids[0], "friend+[1,3]"); err != nil {
			t.Fatal(err)
		}
		want, err := ref.CanAccess("r", req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Effect != want.Effect {
			t.Fatalf("step %d requester %d: %v, a fresh rebuild says %v", i, req, got.Effect, want.Effect)
		}
		// The pinned snapshot keeps answering from its own generation.
		if v.s.g != pinned || pinned.Version() != pinnedAt {
			t.Fatalf("step %d: the pinned view observed a later publication", i)
		}
	}
	held := n.Stats().Delta(before)
	if held.Republications != 200 || held.PublicationsRebuilt > 1 {
		t.Fatalf("200 publications under a pinned reader: %d advanced, %d rebuilt, %d shared; want at most 1 rebuilt",
			held.PublicationsAdvanced, held.PublicationsRebuilt, held.PublicationsShared)
	}
	v.Close()

	// A reader that re-pins the published snapshot every tenth
	// publication: with a single spare each new pin cost a rebuild.
	// The pool passes over the pinned snapshot (newest, parked) and
	// advances an older free one — first of all the clone the first
	// view had parked.
	before = n.Stats()
	reused := false
	for i := 200; i < 400; i++ {
		if i%10 == 0 {
			if v, err = n.View(); err != nil {
				t.Fatal(err)
			}
		}
		toggle(i)
		if publish(t, n).g == pinned {
			reused = true
		}
		if i%10 == 9 {
			v.Close()
		}
	}
	after := n.Stats().Delta(before)
	if !reused || after.PublicationsAdvanced != 200 || after.PublicationsRebuilt != 0 {
		t.Fatalf("re-pinning reader: parked clone reused=%v, %d advanced, %d rebuilt; want true, 200, 0",
			reused, after.PublicationsAdvanced, after.PublicationsRebuilt)
	}
}

// TestPolicyViewIsCopyOnWrite pins the O(Δ) policy view: a graph-only
// publication reuses the previous frozen view outright, and a Share on one
// resource leaves every other resource's rule slice shared between
// consecutive views.
func TestPolicyViewIsCopyOnWrite(t *testing.T) {
	n, ids := ringNet(t, 8)
	resources := []string{"r"}
	for i := 0; i < 40; i++ {
		res := fmt.Sprintf("res%02d", i)
		resources = append(resources, res)
		if _, err := n.Share(res, ids[i%len(ids)], "friend+[1]"); err != nil {
			t.Fatal(err)
		}
	}
	s1 := publish(t, n)
	if err := n.Relate(ids[0], ids[4], "friend"); err != nil {
		t.Fatal(err)
	}
	s2 := publish(t, n)
	if s2 == s1 || s2.store != s1.store {
		t.Fatal("a graph-only publication must reuse the frozen policy view")
	}
	if _, err := n.Share("res07", ids[7], "friend+[1,2]"); err != nil {
		t.Fatal(err)
	}
	s3 := publish(t, n)
	if s3.store == s2.store {
		t.Fatal("a policy change must publish a new policy view")
	}
	for _, res := range resources {
		old, cur := s2.store.RulesFor(core.ResourceID(res)), s3.store.RulesFor(core.ResourceID(res))
		if res == "res07" {
			if len(old) != 1 || len(cur) != 2 {
				t.Fatalf("res07 has %d rules in the old view and %d in the new, want 1 and 2", len(old), len(cur))
			}
			continue
		}
		if len(old) != len(cur) || &old[0] != &cur[0] {
			t.Fatalf("%s: untouched rule slice was copied between consecutive views", res)
		}
	}
}

// TestParkedSpareBehindWindowIsDropped: a parked snapshot is dropped from
// the pool once the delta window no longer reaches it, never advanced —
// its reader keeps it alive and readable for as long as it likes.
func TestParkedSpareBehindWindowIsDropped(t *testing.T) {
	n, ids := ringNet(t, 8)
	v, err := n.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	stale := v.s
	toggle := func(i int) {
		t.Helper()
		var err error
		if i%2 == 0 {
			err = n.Relate(ids[1], ids[5], "friend")
		} else {
			err = n.Unrelate(ids[1], ids[5], "friend")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	toggle(0)
	publish(t, n)
	if !slices.Contains(n.spares, stale) {
		t.Fatal("a pinned retired snapshot should wait in the pool")
	}
	// The default window retains at least graph.DefaultDeltaLogLimit
	// mutations and is trimmed at twice that.
	for i := 1; i <= 2*graph.DefaultDeltaLogLimit+1; i++ {
		toggle(i)
	}
	if n.Graph().Covers(stale.version) {
		t.Fatal("test setup: the window still reaches the pinned snapshot")
	}
	for i := 0; i < 3; i++ {
		toggle(i)
		if s := publish(t, n); s.g == stale.g {
			t.Fatal("a clone behind the delta window was advanced")
		}
		if slices.Contains(n.spares, stale) {
			t.Fatal("a clone behind the delta window stayed in the pool")
		}
	}
	// The view predates the 1 → 5 shortcut that the network now has.
	if d, err := v.CanAccess("r", ids[5]); err != nil || d.Effect != Deny {
		t.Fatalf("the dropped snapshot's view decides (%v, %v)", d.Effect, err)
	}
	if d, err := n.CanAccess("r", ids[5]); err != nil || d.Effect != Allow {
		t.Fatalf("decision after dropping the stale spare = (%v, %v)", d.Effect, err)
	}
}

// TestPublishedSnapshotsAreIndexed churns relationships through a network —
// edges toggled all over the ring (more than one clone's overlay bound
// takes), a relationship type and a member that appear mid-run — while
// readers pin Views across the publications, and asserts "published ⇒
// indexed": every published snapshot's graph carries a CSR over all its
// members and relationship types, patched in place when its retired clone
// was advanced. Run under -race it also checks
// that no clone is patched while a reader can see it.
func TestPublishedSnapshotsAreIndexed(t *testing.T) {
	const members = 64
	n, ids := ringNet(t, members)
	indexed := func(g *graph.Graph) error {
		if c := g.CSR(); c.NumNodes() != g.NumNodes() || c.NumLabels() != g.NumLabels() {
			return fmt.Errorf("published graph at version %d has a CSR over %d of %d nodes and %d of %d labels", g.Version(), c.NumNodes(), g.NumNodes(), c.NumLabels(), g.NumLabels())
		}
		return nil
	}
	done := make(chan struct{})
	errc := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < cap(errc); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				v, err := n.View()
				if err != nil {
					errc <- err
					return
				}
				// Several searches off one pin, so that publications land
				// while the view is held.
				for j := 0; j < 8 && err == nil; j++ {
					if err = indexed(v.s.g); err == nil {
						_, err = v.CheckPath(ids[(i+j)%members], ids[(i*7+j)%members], "friend+[1,3]")
					}
				}
				v.Close()
				if err != nil {
					errc <- err
					return
				}
			}
		}(r)
	}
	before := n.Stats()
	var late UserID
	for i := 0; i < 600; i++ {
		// Pair k = i/2 is related on the even step and unrelated on the odd
		// one; its offset of 2..30 keeps it off the ring's own edges.
		k := i / 2
		from, to, rel := ids[k*5%members], ids[(k*5+2+k%29)%members], "friend"
		if i == 200 {
			late = n.MustAddUser("late")
		}
		switch {
		case i >= 200 && i%8 < 2:
			to = late
		case i >= 300 && i%8 < 4:
			rel = "colleague"
		}
		var err error
		if i%2 == 0 {
			err = n.Relate(from, to, rel)
		} else {
			err = n.Unrelate(from, to, rel)
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if err := indexed(publish(t, n).g); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if d := n.Stats().Delta(before); d.PublicationsAdvanced < 300 {
		t.Fatalf("%d of %d publications advanced a clone; the patched path went unexercised", d.PublicationsAdvanced, d.Republications)
	}
}

// TestSnapshotsShareOneBase churns a relationship ring through 600 toggles — a new relationship type at step 100, and past the
// overlay bound after it — while two readers hold Views across the
// publications. After every publication the published and every parked
// snapshot share the master's base, and every decision equals a network
// built fresh from the master; once the Views close, at most two of the
// bases the run made are still reachable. Run under -race it also checks
// that no graph writes what a clone or a reader shares.
func TestSnapshotsShareOneBase(t *testing.T) {
	t.Parallel()
	// The subtest is named after the engine that answers: the online search.
	t.Run("online-bfs", snapshotsShareOneBase)
}

func snapshotsShareOneBase(t *testing.T) {
	// A ring of 16 crosses the overlay bound.
	const members = 16
	n, ids := ringNet(t, members)
	bases := map[weak.Pointer[graph.Base]]bool{}
	shareOneBase := func(step int) {
		t.Helper()
		n.mu.Lock()
		defer n.mu.Unlock()
		b := n.g.Base()
		bases[weak.Make(b)] = true
		if n.snap.Load().g.Base() != b {
			t.Fatalf("step %d: the published snapshot is not on the master's base", step)
		}
		for _, sp := range n.spares {
			if sp.g.Base() != b {
				t.Fatalf("step %d: a parked snapshot is not on the master's base", step)
			}
		}
	}
	shareOneBase(-1)
	done := make(chan struct{})
	errc := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < cap(errc); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				v, err := n.View()
				if err != nil {
					errc <- err
					return
				}
				for j := 0; j < 8 && err == nil; j++ {
					_, err = v.CheckPath(ids[(i+j)%members], ids[(i*7+j)%members], "friend+[1,3]")
				}
				v.Close()
				if err != nil {
					errc <- err
					return
				}
			}
		}(r)
	}
	before := n.Stats()
	for i := 0; i < 600; i++ {
		// Pair k = i/2 is related on the even step and unrelated on
		// the odd one; its offset of 2..14 keeps it off the ring's own
		// edges.
		k := i / 2
		from, to, rel := ids[k*5%members], ids[(k*5+2+k%13)%members], "friend"
		if i >= 100 && i%8 < 4 {
			rel = "colleague"
		}
		var err error
		if i%2 == 0 {
			err = n.Relate(from, to, rel)
		} else {
			err = n.Unrelate(from, to, rel)
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		req := ids[(i*7)%members]
		got, err := n.CanAccess("r", req)
		if err != nil {
			t.Fatal(err)
		}
		shareOneBase(i)
		n.mu.Lock()
		ref := FromGraph(n.g.Clone())
		n.mu.Unlock()
		if _, err := ref.Share("r", ids[0], "friend+[1,3]"); err != nil {
			t.Fatal(err)
		}
		want, err := ref.CanAccess("r", req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Effect != want.Effect {
			t.Fatalf("step %d requester %d: %v, a fresh network says %v", i, req, got.Effect, want.Effect)
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	d := n.Stats().Delta(before)
	if d.GraphRebases < 2 || d.PublicationsAdvanced < 300 {
		t.Fatalf("%d rebases and %d advanced publications of %d; want a new type and a bound crossing, and most publications advanced",
			d.GraphRebases, d.PublicationsAdvanced, d.Republications)
	}
	runtime.GC()
	runtime.GC()
	live := 0
	for b := range bases {
		if b.Value() != nil {
			live++
		}
	}
	if live > 2 {
		t.Fatalf("%d of the %d bases the run made are still reachable", live, len(bases))
	}
	runtime.KeepAlive(n) // its base is one of the reachable
}
