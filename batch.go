package reachac

import (
	"errors"
	"fmt"
	"slices"

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
//
// A Tx holds each mutation once beyond the graph and the store: as a
// pointer-free undo record, and on a durable network as the bytes of its log
// record, which each mutation appends to the batch's record group as it
// applies. The log frames that group where it lies.
type Tx struct {
	n *Network
	// undo holds the inverse of each applied relationship mutation, pushed
	// in order and run in reverse when the callback (or the WAL commit)
	// fails; policyUndo does the same for Share and Revoke. Rules name
	// members, which no undo removes, so the two unwind independently.
	undo       []undo
	policyUndo []func()
	// group is the batch's record group on a durable network (nil
	// otherwise); err latches the first record that could not be encoded,
	// which fails the commit as a failed append does.
	group *wal.Group
	err   error
	// ops counts the applied mutations and ghosts the node additions kept
	// only for replay alignment (those of failed sub-transactions); Stats
	// counts ops-ghosts as Mutations.
	ops, ghosts int
	// firstNode is the first node ID the batch added. Nodes are never
	// removed, so the batch's node additions are exactly the IDs from
	// firstNode up: the ones a failed batch must still log.
	firstNode UserID
}

// undo is the inverse of one Relate (removed false: remove the edge again)
// or Unrelate (removed true: re-add it with its weight). An edge is named by
// (from, to, label), not EdgeID: a later Unrelate of the same relationship
// in the batch re-adds it under a fresh ID during its own, earlier-running
// undo.
type undo struct {
	from, to graph.NodeID
	label    graph.Label
	removed  bool
	weight   float64
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
// callbacks short and precompute outside the batch. A batch that takes the
// master graph past its rebase bound ends with the rebase (see
// rebaseLocked), so the reader never pays for it.
func (n *Network) Batch(fn func(*Tx) error) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	defer n.rebaseLocked()
	if err := n.writeGuardLocked(); err != nil {
		return err
	}
	tx := &Tx{n: n, firstNode: UserID(n.g.NumNodes())}
	if n.wal != nil {
		tx.group = &n.group
		defer n.group.Reset()
	}
	err := fn(tx)
	if err == nil {
		if tx.err != nil {
			// A record the batch could not encode fails the commit as a
			// failed append does.
			err = n.poisonLocked(tx.err)
		} else if err = n.commitLocked(tx.group); err == nil {
			if acked := tx.ops - tx.ghosts; acked > 0 {
				n.ctr.batches.Add(1)
				n.ctr.mutations.Add(uint64(acked))
			}
			return nil
		}
		if !errors.Is(err, ErrTooLarge) {
			// The append failed and poisoned the network read-only;
			// rollback restores what it can (any residual node additions
			// are confined to the now-unacknowledgeable in-memory state).
			tx.rollback(0, 0)
			return err
		}
		// The group was refused before anything was written: the batch
		// failed like a callback error, and the network stays writable.
	}
	tx.rollback(0, 0)
	// The non-invertible node additions survive the rollback in memory, so
	// they must survive in the log too: if they were dropped, the next node
	// would take ID N live but N-k on replay, and every later acknowledged
	// record referencing it would recover against the wrong user. Commit
	// them (alone) as their own groups.
	if last := UserID(n.g.NumNodes()); tx.group != nil && last > tx.firstNode {
		if cerr := n.appendGhostsLocked(tx.group, tx.firstNode, last); cerr != nil {
			return fmt.Errorf("%w (and logging the batch's residual node additions failed: %v)", err, cerr)
		}
		n.maybeCheckpointLocked()
	}
	return err
}

// appendGhostsLocked logs a failed batch's residual node additions, the
// nodes [lo, hi), in g, split into as many record groups as the log's size
// limit needs. They are in memory already, so failing to log them — even
// one addition too large for any group — poisons the network. No checkpoint
// may start between the groups: it would capture nodes the later groups
// then add again. Callers hold n.mu.
func (n *Network) appendGhostsLocked(g *wal.Group, lo, hi UserID) error {
	g.Reset()
	if err := n.logNodes(g, lo, hi); err != nil {
		return n.poisonLocked(err)
	}
	err := n.appendLocked(g)
	if !errors.Is(err, ErrTooLarge) {
		return err
	}
	if hi-lo == 1 {
		n.walErr = err
		return err
	}
	mid := lo + (hi-lo)/2
	if err := n.appendGhostsLocked(g, lo, mid); err != nil {
		return err
	}
	return n.appendGhostsLocked(g, mid, hi)
}

// logNodes adds the node additions of nodes [lo, hi) to g, as AddUser
// logged them.
func (n *Network) logNodes(g *wal.Group, lo, hi UserID) error {
	for id := lo; id < hi; id++ {
		node := n.g.Node(id)
		op := wal.Op{Kind: wal.OpGraph, Delta: &graph.Delta{Op: graph.OpAddNode, Name: node.Name, Attrs: node.Attrs}}
		if err := g.Add(&op); err != nil {
			return err
		}
	}
	return nil
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
	undoMark, policyMark, opMark, ghostMark := len(tx.undo), len(tx.policyUndo), tx.ops, tx.ghosts
	nodeMark := UserID(tx.n.g.NumNodes())
	var groupMark wal.GroupMark
	if tx.group != nil {
		groupMark = tx.group.Mark()
	}
	err := fn(tx)
	if err == nil {
		return nil
	}
	tx.rollback(undoMark, policyMark)
	last := UserID(tx.n.g.NumNodes())
	// The node additions fn made, a failed nested Sub's included, are
	// counted once, as ghosts of this Sub.
	tx.ops = opMark + int(last-nodeMark)
	tx.ghosts = ghostMark + int(last-nodeMark)
	if tx.group != nil {
		tx.group.Truncate(groupMark)
		if tx.err == nil {
			tx.err = tx.n.logNodes(tx.group, nodeMark, last)
		}
	}
	return err
}

// rollback runs the undos recorded past the marks in reverse order and
// drops them.
func (tx *Tx) rollback(undoMark, policyMark int) {
	g := tx.n.g
	for i := len(tx.undo) - 1; i >= undoMark; i-- {
		u := tx.undo[i]
		if u.removed {
			_, _ = g.AddWeightedEdge(u.from, u.to, g.LabelName(u.label), u.weight)
		} else if e := g.FindEdge(u.from, u.to, u.label); e != graph.InvalidEdge {
			_ = g.RemoveEdge(e)
		}
	}
	tx.undo = tx.undo[:undoMark]
	for i := len(tx.policyUndo) - 1; i >= policyMark; i-- {
		tx.policyUndo[i]()
	}
	tx.policyUndo = tx.policyUndo[:policyMark]
}

// pushUndo records the inverse of one applied relationship mutation. The
// log grows by doubling, not append's quarter steps, which copy a bulk
// batch's undo log several times over.
func (tx *Tx) pushUndo(u undo) {
	if len(tx.undo) == cap(tx.undo) {
		tx.undo = slices.Grow(tx.undo, max(len(tx.undo), 4))
	}
	tx.undo = append(tx.undo, u)
}

// record counts one applied mutation and, on a durable network, adds its
// log record to the batch's group.
func (tx *Tx) record(op *wal.Op) {
	tx.ops++
	if tx.group != nil && tx.err == nil {
		tx.err = tx.group.Add(op)
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
	tx.ops++
	if tx.group != nil && tx.err == nil {
		tx.err = tx.n.logNodes(tx.group, id, id+1)
	}
	return id, nil
}

// Relate is Network.Relate within the batch; rolled back on batch failure.
func (tx *Tx) Relate(from, to UserID, relType string) error {
	e, err := tx.n.g.AddEdge(from, to, relType)
	if err != nil {
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
	tx.pushUndo(undo{from: from, to: to, label: tx.n.g.Edge(e).Label})
	tx.record(&wal.Op{Kind: wal.OpGraph, Delta: &graph.Delta{Op: graph.OpAddEdge, From: from, To: to, Label: relType}})
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
	weight := tx.n.g.Weight(e)
	if err := tx.n.g.RemoveEdge(e); err != nil {
		return err
	}
	tx.pushUndo(undo{from: from, to: to, label: l, removed: true, weight: weight})
	tx.record(&wal.Op{Kind: wal.OpGraph, Delta: &graph.Delta{Op: graph.OpRemoveEdge, From: from, To: to, Label: relType}})
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
	tx.policyUndo = append(tx.policyUndo, func() {
		s := tx.n.store.Load()
		s.RemoveRule(core.ResourceID(resource), id)
		if !existed {
			s.Unregister(core.ResourceID(resource))
		}
	})
	op := wal.ShareOp(resource, owner, id, conds)
	tx.record(&op)
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
		tx.policyUndo = append(tx.policyUndo, func() { _ = store.AddRule(removed) })
	}
	op := wal.RevokeOp(resource, ruleID)
	tx.record(&op)
	return true
}
