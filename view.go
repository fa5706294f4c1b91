package reachac

import (
	"fmt"
	"sort"

	"reachac/internal/core"
	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// View pins one engine snapshot for a group of read operations: every call
// on the view — name resolution included — observes the same immutable
// graph clone and frozen policy view, with no per-call locking. It is how
// the serving layer answers a request that mixes resolution and decision
// (resolve the requester's name, then check) without racing concurrent
// mutators and without touching the network's mutation lock.
//
// A view holds its snapshot's reader pin until Close, which must be called.
// Publication does not wait for it and stays O(Δ): once retired, the pinned
// snapshot parks in the network's small spare pool while other retired
// clones are advanced, and is recycled after Close.
//
// What an open view costs is memory. Its clone shares the master graph's
// base, so while the master keeps that base the view holds only the clone's
// private part: what changed between the base and the view's generation.
// Once the master rebases, the view alone keeps the old base alive, a whole
// graph, until Close. With more than a few generations pinned at once the
// pool overflows and a publication may have to rebuild after all, so keep
// views request-scoped.
//
// After Close every method panics. A View is safe for concurrent use before
// Close.
type View struct {
	n *Network
	s *snapshot
}

// View pins the current engine snapshot (republishing first if the graph or
// policies changed) and returns a handle reading from it. The caller must
// Close the view.
func (n *Network) View() (*View, error) {
	s, err := n.snapshot()
	if err != nil {
		return nil, err
	}
	return &View{n: n, s: s}, nil
}

// Close releases the view's snapshot pin. It must be called exactly once.
func (v *View) Close() {
	v.s.release()
	v.s = nil
}

// UserID resolves a member name against the view's graph.
func (v *View) UserID(name string) (UserID, bool) {
	return v.s.g.NodeByName(name)
}

// UserName returns the name of a member, or false for an ID the view's
// graph does not contain.
func (v *View) UserName(id UserID) (string, bool) {
	if !v.s.g.ValidNode(id) {
		return "", false
	}
	return v.s.g.Node(id).Name, true
}

// NumUsers returns the member count of the view.
func (v *View) NumUsers() int { return v.s.g.NumNodes() }

// NumRelationships returns the live relationship count of the view.
func (v *View) NumRelationships() int { return v.s.g.NumEdges() }

// OutDegree returns the number of outgoing relationships of from.
func (v *View) OutDegree(from UserID) int { return v.s.g.OutDegree(from) }

// Relationships visits from's outgoing relationships in insertion order;
// visit returning false stops the iteration. Together with OutDegree and
// HasRelationship it exposes the pinned snapshot's adjacency without
// cloning it, which is how workload builders (cmd/acbench's streamed
// cells) sample a network they never materialized a *graph.Graph for.
func (v *View) Relationships(from UserID, visit func(to UserID, relType string) bool) {
	g := v.s.g
	g.OutEdges(from, func(e graph.Edge) bool {
		return visit(e.To, g.LabelName(e.Label))
	})
}

// HasRelationship reports whether the typed relationship from→to exists
// in the view.
func (v *View) HasRelationship(from, to UserID, relType string) bool {
	return v.s.g.HasEdge(from, to, relType)
}

// CanAccess is Network.CanAccess against the pinned snapshot.
func (v *View) CanAccess(resource string, requester UserID) (Decision, error) {
	v.n.ctr.checks.Add(1)
	return v.s.engine.Decide(core.ResourceID(resource), requester)
}

// CanAccessAll is Network.CanAccessAll against the pinned snapshot.
func (v *View) CanAccessAll(resource string, requesters []UserID) ([]Decision, error) {
	v.n.ctr.batchChecks.Add(1)
	v.n.ctr.checks.Add(uint64(len(requesters)))
	return v.s.decideAll(core.ResourceID(resource), requesters)
}

// CheckPath is Network.CheckPath against the pinned snapshot.
func (v *View) CheckPath(owner, requester UserID, expr string) (bool, error) {
	p, err := pathexpr.Parse(expr)
	if err != nil {
		return false, err
	}
	v.n.ctr.checks.Add(1)
	return v.s.reval.Reachable(owner, requester, p)
}

// Audience is Network.Audience against the pinned snapshot.
func (v *View) Audience(resource string) ([]UserID, error) {
	v.n.ctr.audiences.Add(1)
	return v.s.audience(resource)
}

// PathAudience is Network.PathAudience against the pinned snapshot.
func (v *View) PathAudience(owner UserID, expr string) ([]UserID, error) {
	v.n.ctr.audiences.Add(1)
	return v.s.pathAudience(owner, expr)
}

// audience enumerates the users the resource's rules admit; an unregistered
// resource is ErrUnknownResource. The per-condition sets come from the
// snapshot's incrementally maintained audience cache, so repeat audiences —
// and audiences after a delta advance — skip the graph traversal entirely,
// regardless of the engine kind answering point checks.
func (s *snapshot) audience(resource string) ([]UserID, error) {
	res := core.ResourceID(resource)
	if _, ok := s.store.Owner(res); !ok {
		return nil, fmt.Errorf("reachac: audience of %q: %w", resource, ErrUnknownResource)
	}
	if s.aud != nil {
		return s.store.AudienceWith(res, s.aud)
	}
	return s.store.Audience(res, s.g, s.eval)
}

// pathAudience enumerates the users a parsed path expression reaches from
// owner, excluding the owner, in ID order. Evaluators that can materialize
// an audience in one traversal (core.AudienceSetEvaluator) are used
// directly; the rest fall back to one reachability query per member.
func (s *snapshot) pathAudience(owner UserID, expr string) ([]UserID, error) {
	p, err := pathexpr.Parse(expr)
	if err != nil {
		return nil, err
	}
	if !s.g.ValidNode(owner) {
		return nil, fmt.Errorf("reachac: path audience of user %d: %w", owner, ErrUnknownUser)
	}
	if s.aud != nil {
		ids, err := s.aud.Audience(owner, p)
		if err != nil {
			return nil, err
		}
		// The cache owns ids (sorted ascending); copy, dropping the owner.
		out := make([]UserID, 0, len(ids))
		for _, id := range ids {
			if id != owner {
				out = append(out, id)
			}
		}
		return out, nil
	}
	if fast, ok := s.eval.(core.AudienceSetEvaluator); ok {
		ids, err := fast.AudienceSet(owner, p)
		if err != nil {
			return nil, err
		}
		out := make([]UserID, 0, len(ids))
		for _, id := range ids {
			if id != owner {
				out = append(out, id)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	}
	var (
		out      []UserID
		firstErr error
	)
	s.g.Nodes(func(n graph.Node) bool {
		if n.ID == owner {
			return true
		}
		ok, err := s.eval.Reachable(owner, n.ID, p)
		if err != nil {
			firstErr = err
			return false
		}
		if ok {
			out = append(out, n.ID)
		}
		return true
	})
	return out, firstErr
}
