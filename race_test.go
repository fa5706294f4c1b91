package reachac

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"reachac/internal/tclosure"
)

// TestConcurrentStress races mutators (Relate/Unrelate/Share/Revoke)
// against snapshot-isolated readers (CanAccess/CanAccessAll/CheckPath/
// Audience). It asserts no errors and, run under -race, the absence of data
// races in the snapshot publication protocol and the search's query paths.
func TestConcurrentStress(t *testing.T) {
	t.Parallel()
	// The subtest is named after the engine that answers: the online search.
	t.Run("online-bfs", concurrentStress)
}

func concurrentStress(t *testing.T) {
	n := New()
	const members = 40
	ids := make([]UserID, members)
	for i := range ids {
		ids[i] = n.MustAddUser(fmt.Sprintf("u%02d", i))
	}
	// A ring of friendships plus some colleague chords, so the
	// policies below have both hits and misses.
	for i := range ids {
		if err := n.Relate(ids[i], ids[(i+1)%members], "friend"); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := n.Relate(ids[i], ids[(i+7)%members], "colleague"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := n.Share("album", ids[0], "friend+[1,3]"); err != nil {
		t.Fatal(err)
	}

	const readers, reads, mutations = 4, 300, 150
	errc := make(chan error, readers+3)
	var wg sync.WaitGroup

	// Edge mutator: flips one chord on and off.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < mutations; i++ {
			if err := n.Relate(ids[5], ids[20], "friend"); err != nil {
				errc <- err
				return
			}
			if err := n.Unrelate(ids[5], ids[20], "friend"); err != nil {
				errc <- err
				return
			}
		}
	}()
	// Policy mutator: adds and revokes an alternative rule.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < mutations; i++ {
			rid, err := n.Share("album", ids[0], "colleague+[1,2]")
			if err != nil {
				errc <- err
				return
			}
			if !n.Revoke("album", rid) {
				errc <- fmt.Errorf("rule %s vanished before revoke", rid)
				return
			}
		}
	}()
	// Batch mutator: coalesced edge flips racing the readers, so the
	// delta-advance steal of a retired clone runs under the race
	// detector against in-flight snapshot readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < mutations; i++ {
			err := n.Batch(func(tx *Tx) error {
				if err := tx.Relate(ids[10], ids[25], "friend"); err != nil {
					return err
				}
				if err := tx.Relate(ids[11], ids[26], "friend"); err != nil {
					return err
				}
				if err := tx.Unrelate(ids[10], ids[25], "friend"); err != nil {
					return err
				}
				return tx.Unrelate(ids[11], ids[26], "friend")
			})
			if err != nil {
				errc <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				req := ids[(seed*31+i)%members]
				if _, err := n.CanAccess("album", req); err != nil {
					errc <- err
					return
				}
				switch i % 16 {
				case 3:
					if _, err := n.CanAccessAll("album", ids[:8]); err != nil {
						errc <- err
						return
					}
				case 7:
					if _, err := n.CheckPath(ids[0], req, "friend+[1,2]"); err != nil {
						errc <- err
						return
					}
				case 11:
					if _, err := n.Audience("album"); err != nil {
						errc <- err
						return
					}
				case 15:
					n.Audit()
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The graph must be back in its pre-race shape, and decisions
	// must still be exact on the settled state.
	chords := (members + 2) / 3 // one colleague chord per i%3==0
	if got := n.NumRelationships(); got != members+chords {
		t.Fatalf("relationships = %d after stress, want %d", got, members+chords)
	}
	d, err := n.CanAccess("album", ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if d.Effect != Allow {
		t.Fatalf("direct friend denied after stress: %+v", d)
	}
	d, err = n.CanAccess("album", ids[members/2])
	if err != nil {
		t.Fatal(err)
	}
	if d.Effect != Deny {
		t.Fatalf("distant member allowed after stress: %+v", d)
	}
}

// TestCheckpointBesideWriters races synchronous Checkpoint calls against
// Batch writers and readers on a durable network whose small threshold
// also starts background checkpoints, then closes it. Under -race this
// covers the one checkpoint path: rotation and clone under the mutator
// lock, the write off it. The reopened network must equal the live one.
func TestCheckpointBesideWriters(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(dir, WithSync(SyncNever), WithCheckpointEvery(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	const writers, members, rounds = 3, 12, 60
	for i := 0; i < writers*members; i++ {
		n.MustAddUser(fmt.Sprintf("u%03d", i))
	}
	if _, err := n.Share("album", 0, "friend+[1,3]"); err != nil {
		t.Fatal(err)
	}
	// The checkpointer calls Checkpoint each time step more batches have
	// committed, and writers run at most window batches past the step, so
	// every call finds writes to cover and writes in flight beside it.
	const calls = 10
	const step, window = writers * rounds / (calls + 1), writers * 4
	errc := make(chan error, writers+2)
	var writing, others sync.WaitGroup
	var written, taken atomic.Int64
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := UserID(w * members)
			for i := 0; i < rounds; i++ {
				for written.Load() >= (taken.Load()+1)*step+window && taken.Load() < calls {
					runtime.Gosched()
				}
				err := n.Batch(func(tx *Tx) error {
					from, to := base+UserID(rng.Intn(members)), base+UserID(rng.Intn(members))
					if from == to {
						_, err := tx.AddUser(fmt.Sprintf("w%d-%03d", w, i))
						return err
					}
					if err := tx.Relate(from, to, "friend"); err != nil {
						return tx.Unrelate(from, to, "friend")
					}
					return nil
				})
				if err != nil {
					errc <- err
					return
				}
				written.Add(1)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { writing.Wait(); close(done) }()
	others.Add(2)
	go func() {
		defer others.Done()
		defer taken.Store(calls)
		for k := int64(1); k <= calls; k++ {
			for written.Load() < k*step {
				select {
				case <-done:
					return
				default:
					runtime.Gosched()
				}
			}
			if err := n.Checkpoint(); err != nil {
				errc <- err
				return
			}
			taken.Store(k)
		}
	}()
	go func() {
		defer others.Done()
		for i := 0; i < 300; i++ {
			if _, err := n.CanAccess("album", UserID(i%members)); err != nil {
				errc <- err
				return
			}
		}
	}()
	<-done
	others.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if st := n.Stats(); st.Checkpoints == 0 {
		t.Fatalf("no checkpoint was taken: %+v", st)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got, want := stateSignature(back), stateSignature(n); got != want {
		t.Fatalf("reopened network differs from the live one:\n%s\nwant\n%s", got, want)
	}
	assertSameDecisions(t, "reopen", back, n)
}

// TestConcurrentViewsAgainstPlainEvaluator races readers that hold Views for
// random lifetimes — more of them than the spare pool has room for — against
// an edge mutator and a policy mutator. Each view's decisions are checked
// against the transitive-closure library over the view's own pinned graph
// and frozen rules: a publication that advanced a clone a view still holds
// would show as a wrong decision here and as a data race under -race.
func TestConcurrentViewsAgainstPlainEvaluator(t *testing.T) {
	t.Parallel()
	// The subtest is named after the engine that answers: the online search.
	t.Run("online-bfs", concurrentViewsAgainstPlainEvaluator)
}

func concurrentViewsAgainstPlainEvaluator(t *testing.T) {
	n, ids := ringNet(t, 24)
	const readers, views, mutations = 5, 120, 200
	errc := make(chan error, readers+2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < mutations; i++ {
			if err := n.Relate(ids[3], ids[14], "friend"); err != nil {
				errc <- err
				return
			}
			if err := n.Unrelate(ids[3], ids[14], "friend"); err != nil {
				errc <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < mutations/4; i++ {
			rid, err := n.Share("r", ids[0], "friend-[1,2]")
			if err != nil {
				errc <- err
				return
			}
			if !n.Revoke("r", rid) {
				errc <- fmt.Errorf("rule %s vanished before revoke", rid)
				return
			}
		}
	}()
	// checkView opens a view, holds it for a random number of checked
	// decisions and closes it.
	checkView := func(rng *rand.Rand) error {
		v, err := n.View()
		if err != nil {
			return err
		}
		defer v.Close()
		plain, pinnedAt := tclosure.New(v.s.g), v.s.g.Version()
		for c := rng.Intn(6); c >= 0; c-- {
			req := ids[rng.Intn(len(ids))]
			got, err := v.CanAccess("r", req)
			if err != nil {
				return err
			}
			want := req == ids[0]
			for _, rule := range v.s.store.RulesFor("r") {
				ok := !want
				for _, cond := range rule.Conditions {
					if ok {
						ok, _ = plain.Reachable(rule.Owner, req, cond.Path)
					}
				}
				want = want || ok
			}
			if (got.Effect == Allow) != want {
				return fmt.Errorf("view at version %d: requester %d %v, closure allows=%v",
					v.s.version, req, got.Effect, want)
			}
			runtime.Gosched()
		}
		if got := v.s.g.Version(); got != pinnedAt {
			return fmt.Errorf("view at version %d: its clone went from version %d to %d while pinned", v.s.version, pinnedAt, got)
		}
		return nil
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < views; i++ {
				if err := checkView(rng); err != nil {
					errc <- err
					return
				}
			}
		}(int64(r) + 1)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if len(n.spares) > sparePoolCap {
		t.Fatalf("%d snapshots parked, capacity %d", len(n.spares), sparePoolCap)
	}
}

// TestSnapshotIsolation pins the semantics the concurrency model promises:
// a batch runs against one snapshot even if a mutation lands mid-batch, and
// new snapshots observe mutations immediately.
func TestSnapshotIsolation(t *testing.T) {
	n := New()
	alice := n.MustAddUser("alice")
	bob := n.MustAddUser("bob")
	if err := n.Relate(alice, bob, "friend"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Share("r", alice, "friend+[1]"); err != nil {
		t.Fatal(err)
	}
	d, err := n.CanAccess("r", bob)
	if err != nil {
		t.Fatal(err)
	}
	if d.Effect != Allow {
		t.Fatalf("friend denied: %+v", d)
	}
	// Unfriending must be visible to the very next check (fresh snapshot).
	if err := n.Unrelate(alice, bob, "friend"); err != nil {
		t.Fatal(err)
	}
	if d, _ = n.CanAccess("r", bob); d.Effect != Deny {
		t.Fatalf("unfriended requester still allowed: %+v", d)
	}
	// And re-friending likewise.
	if err := n.Relate(alice, bob, "friend"); err != nil {
		t.Fatal(err)
	}
	if d, _ = n.CanAccess("r", bob); d.Effect != Allow {
		t.Fatalf("re-friended requester denied: %+v", d)
	}
}

// TestCanAccessAll checks the batch API against the scalar one.
func TestCanAccessAll(t *testing.T) {
	n := New()
	const members = 64
	ids := make([]UserID, members)
	for i := range ids {
		ids[i] = n.MustAddUser(fmt.Sprintf("m%02d", i))
	}
	for i := 1; i < members; i++ {
		// Members 1..15 are direct friends of member 0.
		if i < 16 {
			if err := n.Relate(ids[0], ids[i], "friend"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := n.Share("wall", ids[0], "friend+[1]"); err != nil {
		t.Fatal(err)
	}
	batch, err := n.CanAccessAll("wall", ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != members {
		t.Fatalf("batch = %d decisions, want %d", len(batch), members)
	}
	for i, d := range batch {
		want, err := n.CanAccess("wall", ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if d.Effect != want.Effect {
			t.Fatalf("member %d: batch %v, scalar %v", i, d.Effect, want.Effect)
		}
	}
	if batch[0].Effect != Allow || batch[1].Effect != Allow || batch[40].Effect != Deny {
		t.Fatalf("unexpected effects: owner=%v friend=%v stranger=%v",
			batch[0].Effect, batch[1].Effect, batch[40].Effect)
	}
	// Empty batch.
	if out, err := n.CanAccessAll("wall", nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}
