package reachac

import (
	"errors"
	"fmt"
	"testing"
)

// TestBatchApplies pins the success path: one Batch call lands every
// mutation and the next read observes all of them against one snapshot.
func TestBatchApplies(t *testing.T) {
	n := New()
	a := n.MustAddUser("a")
	b := n.MustAddUser("b")
	var rule string
	err := n.Batch(func(tx *Tx) error {
		c, err := tx.AddUser("c")
		if err != nil {
			return err
		}
		if err := tx.Relate(a, b, "friend"); err != nil {
			return err
		}
		if err := tx.Relate(b, c, "friend"); err != nil {
			return err
		}
		rule, err = tx.Share("album", a, "friend+[1,2]")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	c, ok := n.UserID("c")
	if !ok {
		t.Fatal("batched AddUser lost")
	}
	d, err := n.CanAccess("album", c)
	if err != nil {
		t.Fatal(err)
	}
	if d.Effect != Allow || d.RuleID != rule {
		t.Fatalf("batched state not visible: %+v", d)
	}
}

// TestBatchRollsBack pins the failure path: a failing batch undoes its
// relationship and policy mutations in reverse order.
func TestBatchRollsBack(t *testing.T) {
	n := New()
	a := n.MustAddUser("a")
	b := n.MustAddUser("b")
	if err := n.Relate(a, b, "colleague"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Share("album", a, "colleague+[1]"); err != nil {
		t.Fatal(err)
	}
	rules := func() int { return len(n.Store().RulesFor("album")) }
	preEdges := n.NumRelationships()
	preRules := rules()
	boom := errors.New("boom")
	err := n.Batch(func(tx *Tx) error {
		if err := tx.Relate(b, a, "colleague"); err != nil {
			return err
		}
		if err := tx.Unrelate(a, b, "colleague"); err != nil {
			return err
		}
		if _, err := tx.Share("album", a, "friend+[1]"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Batch error = %v, want boom", err)
	}
	if got := n.NumRelationships(); got != preEdges {
		t.Fatalf("relationships = %d after rollback, want %d", got, preEdges)
	}
	if !n.Graph().HasEdge(a, b, "colleague") {
		t.Fatal("unrelated edge not restored")
	}
	if n.Graph().HasEdge(b, a, "colleague") {
		t.Fatal("related edge not removed")
	}
	if got := rules(); got != preRules {
		t.Fatalf("rules = %d after rollback, want %d", got, preRules)
	}
	// Decisions reflect the rolled-back state.
	d, err := n.CanAccess("album", b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Effect != Allow {
		t.Fatalf("pre-batch rule lost: %+v", d)
	}
}

// TestBatchRelateUnrelateRollback pins the tricky rollback interleaving:
// a batch that relates then unrelates the same pair and fails must leave
// the pair unrelated (the Unrelate undo re-adds the edge under a fresh ID;
// the Relate undo must still find and remove it).
func TestBatchRelateUnrelateRollback(t *testing.T) {
	n := New()
	a := n.MustAddUser("a")
	b := n.MustAddUser("b")
	boom := errors.New("boom")
	err := n.Batch(func(tx *Tx) error {
		if err := tx.Relate(a, b, "friend"); err != nil {
			return err
		}
		if err := tx.Unrelate(a, b, "friend"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if n.Graph().HasEdge(a, b, "friend") {
		t.Fatal("relate+unrelate rollback leaked the edge")
	}
	if got := n.NumRelationships(); got != 0 {
		t.Fatalf("relationships = %d after rollback, want 0", got)
	}
}

// TestBatchRevokeRollback pins that a revoked rule is restored when the
// batch fails.
func TestBatchRevokeRollback(t *testing.T) {
	n := New()
	a := n.MustAddUser("a")
	b := n.MustAddUser("b")
	if err := n.Relate(a, b, "friend"); err != nil {
		t.Fatal(err)
	}
	rid, err := n.Share("album", a, "friend+[1]")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err = n.Batch(func(tx *Tx) error {
		if !tx.Revoke("album", rid) {
			return fmt.Errorf("rule %s missing", rid)
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	d, err := n.CanAccess("album", b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Effect != Allow || d.RuleID != rid {
		t.Fatalf("revoked rule not restored: %+v", d)
	}
}

// TestBatchSingleRepublication pins the cost model the Batch API exists
// for: a burst of batched mutations triggers exactly one republication on
// the next read.
func TestBatchSingleRepublication(t *testing.T) {
	n := New()
	ids := make([]UserID, 10)
	for i := range ids {
		ids[i] = n.MustAddUser(fmt.Sprintf("u%d", i))
	}
	if _, err := n.Share("r", ids[0], "friend+[1,3]"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.CanAccess("r", ids[1]); err != nil {
		t.Fatal(err)
	}
	before := n.snap.Load()
	err := n.Batch(func(tx *Tx) error {
		for i := 0; i < 9; i++ {
			if err := tx.Relate(ids[i], ids[i+1], "friend"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.snap.Load() != before {
		t.Fatal("Batch itself must not republish")
	}
	if d, err := n.CanAccess("r", ids[3]); err != nil || d.Effect != Allow {
		t.Fatalf("post-batch decision = (%v, %v)", d.Effect, err)
	}
	after := n.snap.Load()
	if after == before {
		t.Fatal("first read after the batch must republish")
	}
	if after.version != n.Graph().Version() {
		t.Fatal("one republication must absorb the whole batch")
	}
}

// TestTxSubPartialRollback pins the group-commit coalescing hook: a failed
// sub-transaction rolls back only its own mutations, its groupmates commit,
// and its non-invertible node additions stay logged so WAL replay allocates
// the same IDs the live graph did.
func TestTxSubPartialRollback(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	a := n.MustAddUser("a")
	b := n.MustAddUser("b")
	c := n.MustAddUser("c")

	err = n.Batch(func(tx *Tx) error {
		if err := tx.Sub(func(tx *Tx) error { return tx.Relate(a, b, "friend") }); err != nil {
			t.Fatalf("first sub: %v", err)
		}
		suberr := tx.Sub(func(tx *Tx) error {
			if err := tx.Relate(b, c, "friend"); err != nil {
				return err
			}
			if _, err := tx.AddUser("ghost"); err != nil {
				return err
			}
			return errors.New("boom")
		})
		if suberr == nil {
			t.Fatal("failing sub reported success")
		}
		return tx.Sub(func(tx *Tx) error { return tx.Relate(a, c, "colleague") })
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}

	if !n.Graph().HasEdge(a, b, "friend") || !n.Graph().HasEdge(a, c, "colleague") {
		t.Fatal("successful sub-transactions lost")
	}
	if n.Graph().HasEdge(b, c, "friend") {
		t.Fatal("failed sub-transaction's edge survived")
	}
	ghost, ok := n.UserID("ghost")
	if !ok {
		t.Fatal("non-invertible ghost node vanished in memory")
	}

	// Replay must allocate identical IDs: the ghost's record stayed in the
	// group even though its sub-transaction failed.
	dora := n.MustAddUser("dora")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if got, ok := n2.UserID("ghost"); !ok || got != ghost {
		t.Fatalf("ghost = %d, %v after replay (want %d)", got, ok, ghost)
	}
	if got, ok := n2.UserID("dora"); !ok || got != dora {
		t.Fatalf("dora = %d, %v after replay (want %d)", got, ok, dora)
	}
	if !n2.Graph().HasEdge(a, b, "friend") || n2.Graph().HasEdge(b, c, "friend") {
		t.Fatal("replayed graph diverges from the live one")
	}
}

// TestBatchEndsWithRebase checks that the master graph rebases where a
// batch's mutations end, not at the next read: after a batch adding 20k
// members and a relationship each, with no read since, the master asks for
// no rebase and Stats counts one. The rebase drops the master's delta log,
// so a version from before it is no longer covered, while a batch that
// crosses no bound keeps the log.
func TestBatchEndsWithRebase(t *testing.T) {
	const members = 20_000
	n := New()
	first, second := n.MustAddUser("u0"), n.MustAddUser("u1")
	// The first relationship of a type lays the CSR out again, which the
	// batch ends by rebasing; the next crosses no bound.
	if err := n.Relate(second, first, "friend"); err != nil {
		t.Fatal(err)
	}
	before := n.Graph().Version()
	if err := n.Relate(first, second, "friend"); err != nil {
		t.Fatal(err)
	}
	if !n.Graph().Covers(before) {
		t.Fatal("a small batch dropped the delta log")
	}
	published, rebases, base := n.Graph().Version(), n.Stats().GraphRebases, n.Graph().Base()
	err := n.Batch(func(tx *Tx) error {
		prev := UserID(1)
		for i := 2; i < members; i++ {
			id, err := tx.AddUser(fmt.Sprintf("u%d", i))
			if err != nil {
				return err
			}
			if err := tx.Relate(prev, id, "friend"); err != nil {
				return err
			}
			prev = id
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	g := n.Graph()
	if g.NeedsRebase() || g.Base() == base || g.NumEdges() != members {
		t.Fatalf("after the batch: NeedsRebase %v, a new base %v, %d edges", g.NeedsRebase(), g.Base() != base, g.NumEdges())
	}
	if got := n.Stats().GraphRebases; got != rebases+1 {
		t.Fatalf("%d rebases counted for the batch, want 1", got-rebases)
	}
	if g.Covers(published) || g.Covers(before) || !g.Covers(g.Version()) {
		t.Fatalf("after the rebase the log covers %d: %v, %d: %v, the current %d: %v",
			published, g.Covers(published), before, g.Covers(before), g.Version(), g.Covers(g.Version()))
	}
	if d, err := n.CanAccess("nothing", first); err != nil || d.Effect != Deny {
		t.Fatalf("a read after the batch = %v, %v", d.Effect, err)
	}
}
