package reachac

import (
	"slices"
	"sync/atomic"

	"reachac/internal/core"
	"reachac/internal/graph"
	"reachac/internal/search"
)

// snapshot is one immutable engine generation: a private clone of the social
// graph, the online search engine over it and a frozen policy view. Once
// published via Network.snap it is never mutated, so any number of readers
// may use it with no coordination while mutators prepare the next
// generation.
type snapshot struct {
	// g is a private clone of the master graph; nothing mutates it after
	// the snapshot is built, so the search may traverse it lock-free.
	g *graph.Graph
	// search is the online search engine over g: every check, CheckPath,
	// audience and ShardExpand runs on it, and it compiles each expression
	// once per snapshot graph.
	search *search.Engine
	// store is the frozen policy view (a Store clone, shared by consecutive
	// snapshots of one policy generation); engine decides against it, so
	// concurrent Share/Revoke cannot change the rules a reader observes
	// mid-decision. Every decision is evaluated afresh and audited.
	store  *core.Store
	engine *core.Engine
	// version is the master graph's Version at clone time; src and gen
	// identify the live policy store and its Generation at clone time.
	// The snapshot is current exactly while all three still match.
	version uint64
	src     *core.Store
	gen     uint64
	// refs counts in-flight readers of the snapshot's graph clone. It is a
	// pointer because a policy-only republication shares the previous
	// snapshot's clone — the counter must then be shared too, so that a
	// later advance of that clone (see advanceSpareLocked) observes every
	// reader of that graph.
	refs *atomic.Int64
	// retired is set (under Network.mu) once the snapshot has been
	// replaced by a newer publication. A reader that acquires a retired
	// snapshot backs off and reloads; combined with the refs count this
	// lets the publisher prove a retired clone is unobserved before
	// advancing it in place.
	retired atomic.Bool
}

// acquire pins s for one read operation. It must be balanced by release.
// The increment-then-check ordering closes the classic hazard window: if
// the publisher observed refs == 0 after setting retired, any reader
// incrementing later is guaranteed to observe retired and back off
// (sequentially consistent atomics), so a clone is only ever advanced in
// place when provably unobserved.
func (s *snapshot) acquire() bool {
	s.refs.Add(1)
	if s.retired.Load() {
		s.refs.Add(-1)
		return false
	}
	return true
}

// release unpins the snapshot after a read operation.
func (s *snapshot) release() { s.refs.Add(-1) }

// current reports whether the snapshot still reflects the live network
// state. The graph version and policy generation are both read from atomic
// counters, so this check is lock-free.
func (s *snapshot) current(g *graph.Graph, store *core.Store) bool {
	return s.version == g.Version() && s.src == store && s.gen == store.Generation()
}

// snapshot returns the current engine snapshot pinned for one read
// operation (the caller must release it), publishing a fresh one if the
// graph or policies changed since the last publication. The fast path is
// two atomic loads, two atomic counter reads and one pin; only the first
// reader after a change pays for the republication.
func (n *Network) snapshot() *snapshot {
	for {
		s := n.snap.Load()
		if s == nil || !s.current(n.g, n.store.Load()) {
			break
		}
		if s.acquire() {
			return s
		}
		// Retired under our feet: a newer snapshot is already published
		// (retirement happens only after the replacing Store), so the next
		// load observes it.
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.publishLocked()
	// Under mu a snapshot cannot retire, so this acquire never fails.
	s.acquire()
	return s
}

// sparePoolCap bounds Network.spares. Three clones — published, free spare,
// one parked under a long-lived View — is what a single spare already held
// at its peak (the View kept the third alive as garbage-to-be); the pool
// keeps that clone for reuse instead, and room for one more pinned reader.
// A parked clone costs its private part, not a graph: it shares the master's
// base.
const sparePoolCap = 3

// publishLocked builds and publishes a snapshot of the current master
// state. Callers must hold n.mu, which serializes it against mutators and
// concurrent publishers.
//
// Every snapshot's graph is a clone of the master sharing its base (see
// graph.Graph). The master rebases where its mutations end (see
// rebaseLocked), never here, so a publication clones a bounded private
// part; parked snapshots on an old base leave the pool.
//
// Publication cost, cheapest first (Stats counts each tier):
//
//  1. shared — a policy-only change reuses the previous snapshot's graph
//     clone and search engine; only the policy view is refreshed;
//  2. advanced — the newest parked snapshot no reader holds is
//     fast-forwarded by replaying the master's delta log (O(Δ)); each
//     replayed delta patches the clone's CSR (see graph.CSR), and its
//     search engine, which holds nothing the deltas invalidate, carries
//     over with its compiled plans. A parked snapshot a View still pins is
//     passed over and waits in the pool, so a pinned reader costs one
//     private part of memory, not a rebuild;
//  3. rebuilt — a clone of the master's private part and a new search
//     engine, whose plans compile again on first use: after a rebase, and
//     when every parked snapshot is pinned or behind the delta window, or
//     the replay fails.
//
// The policy view is O(Δ) on every tier: the previous snapshot's view when
// no policy changed since, a copy-on-write core.Store.Clone otherwise.
//
// Three invariants hold throughout: a snapshot is never mutated after
// publication, a retired snapshot's clone is advanced in place only when
// provably unobserved (see snapshot.acquire) — which is also what makes
// patching its CSR in place safe — and a published snapshot's graph carries
// its CSR, which every tier keeps current, so no reader pays for a build.
func (n *Network) publishLocked() *snapshot {
	store := n.store.Load()
	cur := n.snap.Load()
	// Read both counters before cloning: a mutation racing the clone then
	// at worst marks the new snapshot already stale (forcing one extra
	// rebuild), never lets it linger as current with missing state.
	gv, gen := n.g.Version(), store.Generation()
	samePolicy := cur != nil && cur.src == store && cur.gen == gen
	if samePolicy && cur.version == gv {
		return cur
	}
	var (
		gc   *graph.Graph
		se   *search.Engine
		refs *atomic.Int64
		tier = &n.ctr.pubRebuilt
	)
	if cur != nil && cur.version == gv {
		// Policy-only change: share the clone, engine and reader count.
		gc, se, refs = cur.g, cur.search, cur.refs
		tier = &n.ctr.pubShared
	} else if spare := n.advanceSpareLocked(cur); spare != nil {
		gc, se = spare.g, spare.search
		tier = &n.ctr.pubAdvanced
	} else {
		gc = n.g.Clone()
		// Private clones never serve ChangesSince (the master's log drives
		// every advance), so don't let delta replays accumulate in them.
		gc.SetDeltaLogLimit(-1)
		se = search.New(gc)
		se.PlanCompiles = &n.ctr.planCompiles
	}
	if refs == nil {
		refs = new(atomic.Int64)
	}
	var view *core.Store
	if samePolicy {
		view = cur.store
	} else {
		view = store.Clone()
	}
	s := &snapshot{
		g:       gc,
		search:  se,
		store:   view,
		engine:  core.NewEngineWithLog(view, se, n.audit),
		version: gv,
		src:     store,
		gen:     gen,
		refs:    refs,
	}
	tier.Add(1)
	old := n.snap.Swap(s)
	if old != nil && old != s {
		old.retired.Store(true)
		if old.g != s.g && old.g.Base() == n.g.Base() {
			// The outgoing snapshot's clone is not the one just published
			// and shares the master's base, so it parks as an advance
			// candidate, pushing out the stalest when the pool is full.
			// (After a policy-only share the clones are equal, and the clone
			// parks when the sharer retires.)
			if len(n.spares) == sparePoolCap {
				n.spares = slices.Delete(n.spares, 0, 1)
			}
			n.spares = append(n.spares, old)
		}
	}
	return s
}

// publish publishes a snapshot of the current state now, so that the next
// read does not pay for it.
func (n *Network) publish() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.publishLocked()
}

// rebaseLocked rebases the master graph when graph.Graph.NeedsRebase says
// a clone of it would cost more than a bounded private part, and drops the
// master's delta log: every parked snapshot is on the old base, which
// advanceSpareLocked drops unadvanced, so the log serves none of them. Each
// section that mutates the master ends with it — a Batch, a replicated
// group, a recovery — and a checkpoint calls it before it clones, so a
// reader never pays for the O(V+E) fold. Callers hold n.mu, or own a
// network not yet shared.
func (n *Network) rebaseLocked() {
	if !n.g.NeedsRebase() {
		return
	}
	n.g.Rebase()
	n.g.DropChanges()
	n.ctr.rebases.Add(1)
}

// advanceSpareLocked tries to satisfy a publication by fast-forwarding a
// parked snapshot's private clone to the master's current version,
// replaying the bounded delta log at O(Δ) instead of paying a clone. It
// returns the spare, whose clone is now current and whose search engine
// carries over: it holds nothing the deltas invalidate. Parked snapshots
// the delta window has left behind, or on a base the master has rebased
// away from, are dropped first: they can only fall further behind. Of the
// rest it takes the newest that no reader holds (refs == 0 after retired:
// the acquire/back-off proof); pinned ones stay parked. It returns nil when
// no parked snapshot qualifies or the replay fails. Callers must hold n.mu.
func (n *Network) advanceSpareLocked(cur *snapshot) *snapshot {
	n.spares = slices.DeleteFunc(n.spares, func(c *snapshot) bool {
		return !n.g.Covers(c.version) || c.g.Base() != n.g.Base()
	})
	var spare *snapshot
	for i := len(n.spares) - 1; i >= 0; i-- {
		// Never advance a clone the published snapshot shares (parking
		// rules that out already).
		if c := n.spares[i]; c.refs.Load() == 0 && (cur == nil || cur.g != c.g) {
			// Taken, c leaves the pool for good: on any failure below its
			// clone is partially advanced and must never be reused.
			spare, n.spares = c, slices.Delete(n.spares, i, i+1)
			break
		}
	}
	if spare == nil {
		return nil
	}
	deltas, _ := n.g.ChangesSince(spare.version)
	for _, d := range deltas {
		if err := spare.g.Apply(d); err != nil {
			return nil
		}
	}
	return spare
}

// CanAccessAll decides access to one resource for many requesters in a
// single call. All decisions are made against one engine snapshot, so the
// result is a consistent view even if mutations land mid-batch. The
// returned slice is index-aligned with requesters. On any evaluation error
// the batch is abandoned and the first error is returned.
func (n *Network) CanAccessAll(resource string, requesters []UserID) ([]Decision, error) {
	s := n.snapshot()
	defer s.release()
	n.ctr.batchChecks.Add(1)
	n.ctr.checks.Add(uint64(len(requesters)))
	return s.decideAll(core.ResourceID(resource), requesters)
}

// decideAll is CanAccessAll's body over an already-pinned snapshot, shared
// with View.CanAccessAll. It decides one requester after another: a
// decision costs about half a microsecond and ends in the audit log's
// mutex, so spreading a batch over goroutines lost at every size measured
// (see BenchmarkCanAccessAll).
func (s *snapshot) decideAll(res core.ResourceID, requesters []UserID) ([]Decision, error) {
	out := make([]Decision, len(requesters))
	for i, r := range requesters {
		d, err := s.engine.Decide(res, r)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}
