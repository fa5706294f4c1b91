package reachac

import (
	"errors"
	"fmt"

	"reachac/internal/core"
	"reachac/internal/graph"
	"reachac/internal/wal"
)

// Tx batches mutations under a single lock hold so that interleaved readers
// trigger at most one snapshot republication for the whole batch, and the
// delta window is consumed in one O(Δ) advance instead of one per call. On a
// durable network the batch additionally commits as ONE atomic write-ahead
// log record group: either every operation of the batch is durable or none
// is, and recovery never observes a half-applied batch. A Tx is only valid
// inside the Batch callback that created it and must not be used
// concurrently or retained.
type Tx struct {
	n *Network
	// undo holds the inverse of each applied mutation, pushed in order and
	// run in reverse when the callback (or the WAL commit) fails.
	undo []func()
	// ops accumulates the write-ahead log record of each applied mutation,
	// in order; Batch appends them as one atomic record group at commit.
	ops []wal.Op
	// ghosts counts ops kept only for replay alignment (node additions of
	// failed sub-transactions); Stats excludes them from Mutations.
	ghosts int
}

// Batch runs fn with a transaction handle, applying all its mutations under
// one lock acquisition and — on a durable network — committing them as one
// atomic WAL record group, fsynced before Batch returns (per the sync
// policy). If fn returns an error, or the WAL append fails, the invertible
// mutations already applied (Relate, Unrelate, Share, Revoke) are rolled
// back in reverse order and the error is returned. AddUser is not
// invertible (the graph never removes nodes); users created by a failed
// batch remain as isolated members, which no path expression can ever
// match — on a durable network those residual additions are still logged,
// keeping node-ID allocation identical under replay. A batch whose record
// group would exceed the log's size limit fails with ErrTooLarge the same
// way: the log refuses the group before writing any of it. Any other failed
// WAL append can leave in-memory state the log missed, so it poisons a
// durable network read-only — acknowledging later mutations could diverge
// from what recovery rebuilds.
//
// Reads against the currently published snapshot proceed untouched, but
// once the batch's first mutation lands, a reader that needs a fresh
// snapshot waits for the whole batch before republishing (once) — so keep
// callbacks short and precompute outside the batch.
func (n *Network) Batch(fn func(*Tx) error) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.writeGuardLocked(); err != nil {
		return err
	}
	tx := &Tx{n: n}
	err := fn(tx)
	if err == nil {
		if err = n.commitLocked(tx.ops); err == nil {
			if acked := len(tx.ops) - tx.ghosts; acked > 0 {
				n.ctr.batches.Add(1)
				n.ctr.mutations.Add(uint64(acked))
			}
			return nil
		}
		if !errors.Is(err, ErrTooLarge) {
			// The append failed and poisoned the network read-only;
			// rollback restores what it can (any residual node additions
			// are confined to the now-unacknowledgeable in-memory state).
			tx.rollback()
			return err
		}
		// The group was refused before anything was written: the batch
		// failed like a callback error, and the network stays writable.
	}
	tx.rollback()
	// The non-invertible node additions survive the rollback in memory, so
	// they must survive in the log too: if they were dropped, the next node
	// would take ID N live but N-k on replay, and every later acknowledged
	// record referencing it would recover against the wrong user. Commit
	// them (alone) as their own groups.
	if ghosts := tx.ghostOps(); len(ghosts) > 0 {
		if cerr := n.appendGhostsLocked(ghosts); cerr != nil {
			return fmt.Errorf("%w (and logging the batch's residual node additions failed: %v)", err, cerr)
		}
		n.maybeCheckpointLocked()
	}
	return err
}

// appendGhostsLocked logs a failed batch's residual node additions, split
// into as many record groups as the log's size limit needs. They are in
// memory already, so failing to log them — even one addition too large for
// any group — poisons the network. No checkpoint may start between the
// groups: it would capture nodes the later groups then add again. Callers
// hold n.mu.
func (n *Network) appendGhostsLocked(ops []wal.Op) error {
	err := n.appendLocked(ops)
	if !errors.Is(err, ErrTooLarge) {
		return err
	}
	if len(ops) == 1 {
		n.walErr = err
		return err
	}
	if err := n.appendGhostsLocked(ops[:len(ops)/2]); err != nil {
		return err
	}
	return n.appendGhostsLocked(ops[len(ops)/2:])
}

// Sub runs fn as a sub-transaction of the batch: on error, the mutations fn
// applied are rolled back and their log records dropped, while everything
// the enclosing batch applied before (and applies after) stands. It is the
// group-commit coalescing hook: a server can fold the mutation requests of
// many independent writers into ONE Batch — one atomic record group, one
// fsync — yet still fail each request individually instead of aborting the
// whole group. Node additions made by a failed sub-transaction follow the
// Batch rule for non-invertible mutations: the nodes remain (isolated, never
// matching any path) and their records stay in the group, keeping replay
// node-ID allocation aligned with memory.
func (tx *Tx) Sub(fn func(*Tx) error) error {
	undoMark, opMark := len(tx.undo), len(tx.ops)
	err := fn(tx)
	if err == nil {
		return nil
	}
	for i := len(tx.undo) - 1; i >= undoMark; i-- {
		tx.undo[i]()
	}
	tx.undo = tx.undo[:undoMark]
	kept := tx.ops[:opMark]
	for _, op := range tx.ops[opMark:] {
		if op.Kind == wal.OpGraph && op.Delta != nil && op.Delta.Op == graph.OpAddNode {
			kept = append(kept, op)
			tx.ghosts++
		}
	}
	tx.ops = kept
	return err
}

// ghostOps returns the batch's non-invertible operations — the node
// additions that rollback cannot remove and that therefore must still be
// logged when the batch fails.
func (tx *Tx) ghostOps() []wal.Op {
	var out []wal.Op
	for _, op := range tx.ops {
		if op.Kind == wal.OpGraph && op.Delta != nil && op.Delta.Op == graph.OpAddNode {
			out = append(out, op)
		}
	}
	return out
}

// rollback runs the recorded undos in reverse order.
func (tx *Tx) rollback() {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tx.undo[i]()
	}
}

// UserID resolves a member name inside the batch, observing users added
// earlier in the same batch — which Network.UserID, blocked on the batch's
// lock, could not show until commit.
func (tx *Tx) UserID(name string) (UserID, bool) {
	return tx.n.g.NodeByName(name)
}

// AddUser is Network.AddUser within the batch.
func (tx *Tx) AddUser(name string, attrs ...Attr) (UserID, error) {
	id, err := tx.n.addUserLocked(name, attrs)
	if err != nil {
		return id, err
	}
	tx.ops = append(tx.ops, wal.GraphOp(graph.Delta{
		Op:    graph.OpAddNode,
		Name:  name,
		Attrs: tx.n.g.Node(id).Attrs,
	}))
	return id, nil
}

// Relate is Network.Relate within the batch; rolled back on batch failure.
func (tx *Tx) Relate(from, to UserID, relType string) error {
	if _, err := tx.n.g.AddEdge(from, to, relType); err != nil {
		g := tx.n.g
		switch {
		case !g.ValidNode(from) || !g.ValidNode(to):
			return fmt.Errorf("reachac: relate %d -> %d: %w", from, to, ErrUnknownUser)
		case from == to:
			return fmt.Errorf("reachac: relate %d to themself: %w", from, ErrSelfRelationship)
		case g.HasEdge(from, to, relType):
			return fmt.Errorf("reachac: %s relationship %d -> %d: %w", relType, from, to, ErrDuplicateRelationship)
		}
		return err
	}
	// Undo by (from, to, label) identity, not EdgeID: a later Unrelate of
	// the same relationship in this batch would re-add it under a fresh ID
	// during its own (earlier-running) undo.
	tx.undo = append(tx.undo, func() {
		if l, ok := tx.n.g.LookupLabel(relType); ok {
			if e := tx.n.g.FindEdge(from, to, l); e != graph.InvalidEdge {
				_ = tx.n.g.RemoveEdge(e)
			}
		}
	})
	tx.ops = append(tx.ops, wal.GraphOp(graph.Delta{
		Op: graph.OpAddEdge, From: from, To: to, Label: relType,
	}))
	return nil
}

// Unrelate is Network.Unrelate within the batch; rolled back (the edge is
// re-added, with its weight) on batch failure.
func (tx *Tx) Unrelate(from, to UserID, relType string) error {
	l, ok := tx.n.g.LookupLabel(relType)
	if !ok {
		return fmt.Errorf("reachac: no relationships of type %q: %w", relType, ErrUnknownRelationship)
	}
	e := tx.n.g.FindEdge(from, to, l)
	if e == graph.InvalidEdge {
		return fmt.Errorf("reachac: no %s relationship %d -> %d: %w", relType, from, to, ErrUnknownRelationship)
	}
	rec := tx.n.g.Edge(e)
	if err := tx.n.g.RemoveEdge(e); err != nil {
		return err
	}
	tx.undo = append(tx.undo, func() {
		_, _ = tx.n.g.AddWeightedEdge(rec.From, rec.To, relType, rec.Weight)
	})
	tx.ops = append(tx.ops, wal.GraphOp(graph.Delta{
		Op: graph.OpRemoveEdge, From: from, To: to, Label: relType,
	}))
	return nil
}

// Share is Network.Share within the batch; on batch failure the added rule
// is revoked and, if this Share registered the resource, the registration
// is removed again too.
func (tx *Tx) Share(resource string, owner UserID, paths ...string) (string, error) {
	_, existed := tx.n.store.Load().Owner(core.ResourceID(resource))
	id, conds, err := tx.n.shareLocked(resource, owner, paths)
	if err != nil {
		return "", err
	}
	tx.undo = append(tx.undo, func() {
		s := tx.n.store.Load()
		s.RemoveRule(core.ResourceID(resource), id)
		if !existed {
			s.Unregister(core.ResourceID(resource))
		}
	})
	tx.ops = append(tx.ops, wal.ShareOp(resource, owner, id, conds))
	return id, nil
}

// Revoke is Network.Revoke within the batch; the removed rule is re-added
// on batch failure.
func (tx *Tx) Revoke(resource, ruleID string) bool {
	store := tx.n.store.Load()
	var removed *core.Rule
	for _, r := range store.RulesFor(core.ResourceID(resource)) {
		if r.ID == ruleID {
			removed = r
			break
		}
	}
	if !store.RemoveRule(core.ResourceID(resource), ruleID) {
		return false
	}
	if removed != nil {
		tx.undo = append(tx.undo, func() { _ = store.AddRule(removed) })
	}
	tx.ops = append(tx.ops, wal.RevokeOp(resource, ruleID))
	return true
}
