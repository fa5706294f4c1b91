package reachac

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"reachac/internal/core"
	"reachac/internal/graph"
	"reachac/internal/joinindex"
	"reachac/internal/search"
	"reachac/internal/tclosure"
)

// snapshot is one immutable engine generation: a private clone of the social
// graph, an evaluator built over it and a frozen policy view. Once published
// via Network.snap it is never mutated, so any number of readers may use it
// with no coordination while mutators prepare the next generation.
type snapshot struct {
	// g is a private clone of the master graph; nothing mutates it after
	// the snapshot is built, so evaluators may traverse it lock-free.
	g    *graph.Graph
	kind EngineKind
	// eval is the evaluator of the selected kind: every check and CheckPath
	// decides on it, and delta advances (core.IncrementalEvaluator) talk to
	// it directly.
	eval Evaluator
	// search is the snapshot's online search engine over g, which audiences
	// and ShardExpand run on. On the Online kind it is eval itself, so each
	// expression compiles one plan per snapshot graph.
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

// buildEvaluator constructs the evaluator of the given kind over g, which
// must not be mutated afterwards. The online kinds count the plans they
// compile in compiles.
func buildEvaluator(kind EngineKind, g *graph.Graph, compiles *atomic.Uint64) (Evaluator, error) {
	online := func(e *search.Engine) *search.Engine {
		e.PlanCompiles = compiles
		return e
	}
	switch kind {
	case Online:
		return online(search.New(g)), nil
	case Closure:
		return tclosure.New(g), nil
	case Index:
		idx, err := joinindex.Build(g, joinindex.Options{})
		if err != nil {
			return nil, fmt.Errorf("reachac: building index: %w", err)
		}
		return idx, nil
	default:
		return nil, fmt.Errorf("reachac: unknown engine kind %d", int(kind))
	}
}

// searchEngine returns the online search engine of a snapshot over gc whose
// evaluator is eval: eval itself on the Online kind, otherwise prev (an
// engine over gc, or nil), or a new engine when there is none.
func (n *Network) searchEngine(eval Evaluator, gc *graph.Graph, prev *search.Engine) *search.Engine {
	if e, ok := eval.(*search.Engine); ok {
		return e
	}
	if prev != nil {
		return prev
	}
	e := search.New(gc)
	e.PlanCompiles = &n.ctr.planCompiles
	return e
}

// snapshot returns the current engine snapshot pinned for one read
// operation (the caller must release it), publishing a fresh one if the
// graph or policies changed since the last publication. The fast path is
// two atomic loads, two atomic counter reads and one pin; only the first
// reader after a change pays for the republication.
func (n *Network) snapshot() (*snapshot, error) {
	for {
		s := n.snap.Load()
		if s == nil || !s.current(n.g, n.store.Load()) {
			break
		}
		if s.acquire() {
			return s, nil
		}
		// Retired under our feet: a newer snapshot is already published
		// (retirement happens only after the replacing Store), so the next
		// load observes it.
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	s, err := n.publishLocked()
	if err != nil {
		return nil, err
	}
	// Under mu a snapshot cannot retire, so this acquire never fails.
	s.acquire()
	return s, nil
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
// graph.Graph). Before a graph publication the master rebases, O(V+E), when
// graph.Graph.NeedsRebase says a clone would cost more than a bounded
// private part; parked snapshots on the old base then leave the pool.
//
// Publication cost, cheapest first (Stats counts each tier):
//
//  1. shared — a policy-only change reuses the previous snapshot's graph
//     clone and engines; only the policy view is refreshed;
//  2. advanced — the newest parked snapshot no reader holds is
//     fast-forwarded by replaying the master's delta log (O(Δ)); each
//     replayed delta patches the clone's CSR (see graph.CSR), and its
//     evaluator advances in place when it implements
//     core.IncrementalEvaluator. A parked snapshot a View still pins is
//     passed over and waits in the pool, so a pinned reader costs one
//     private part of memory, not a rebuild;
//  3. rebuilt — a clone of the master's private part and a new evaluator
//     (O(V+E) for the index kinds, which re-index the whole graph): after a
//     rebase, and when every parked snapshot is pinned or behind the delta
//     window, or the replay fails.
//
// The policy view is O(Δ) on every tier: the previous snapshot's view when
// no policy changed since, a copy-on-write core.Store.Clone otherwise.
//
// Three invariants hold throughout: a snapshot is never mutated after
// publication, a retired snapshot's clone is advanced in place only when
// provably unobserved (see snapshot.acquire) — which is also what makes
// patching its CSR in place safe — and a published snapshot's graph carries
// its CSR, which every tier keeps current, so no reader pays for a build.
func (n *Network) publishLocked() (*snapshot, error) {
	store := n.store.Load()
	cur := n.snap.Load()
	// Read both counters before cloning: a mutation racing the clone then
	// at worst marks the new snapshot already stale (forcing one extra
	// rebuild), never lets it linger as current with missing state.
	gv, gen := n.g.Version(), store.Generation()
	samePolicy := cur != nil && cur.src == store && cur.gen == gen
	if samePolicy && cur.version == gv && cur.kind == n.kind {
		return cur, nil
	}
	var (
		gc   *graph.Graph
		eval Evaluator
		se   *search.Engine
		refs *atomic.Int64
		tier = &n.ctr.pubRebuilt
	)
	if cur != nil && cur.version == gv && cur.kind == n.kind {
		// Policy-only change: share the clone, engines and reader count.
		gc, eval, se, refs = cur.g, cur.eval, cur.search, cur.refs
		tier = &n.ctr.pubShared
	} else {
		if n.g.NeedsRebase() {
			n.g.Rebase()
			n.ctr.rebases.Add(1)
		}
		if agc, aeval, ase := n.advanceSpareLocked(cur); agc != nil {
			gc, eval, se = agc, aeval, ase
			tier = &n.ctr.pubAdvanced
		}
	}
	if gc == nil {
		gc = n.g.Clone()
		// Private clones never serve ChangesSince (the master's log drives
		// every advance), so don't let delta replays accumulate in them.
		gc.SetDeltaLogLimit(-1)
		var err error
		eval, err = buildEvaluator(n.kind, gc, &n.ctr.planCompiles)
		if err != nil {
			return nil, err
		}
		se = n.searchEngine(eval, gc, nil)
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
		kind:    n.kind,
		eval:    eval,
		search:  se,
		store:   view,
		engine:  core.NewEngineWithLog(view, eval, n.audit),
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
	return s, nil
}

// advanceSpareLocked tries to satisfy a publication by fast-forwarding a
// parked snapshot's private clone to the master's current version —
// replaying the bounded delta log at O(Δ) instead of paying a clone and a
// new evaluator — and advancing its evaluator in place when possible. The
// search engine holds nothing the deltas invalidate, so it carries over.
// Parked snapshots the delta window has left behind, or on a base the master
// has rebased away from, are dropped first: they can only fall further
// behind. Of the rest it takes the newest that no reader holds
// (refs == 0 after retired: the acquire/back-off proof); pinned ones stay
// parked. It returns nils when no parked snapshot qualifies. Callers must
// hold n.mu.
func (n *Network) advanceSpareLocked(cur *snapshot) (*graph.Graph, Evaluator, *search.Engine) {
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
		return nil, nil, nil
	}
	deltas, _ := n.g.ChangesSince(spare.version)
	gc := spare.g
	for _, d := range deltas {
		if err := gc.Apply(d); err != nil {
			return nil, nil, nil
		}
	}
	if spare.kind == n.kind {
		if inc, isInc := spare.eval.(core.IncrementalEvaluator); isInc && inc.ApplyDelta(gc, deltas) {
			return gc, spare.eval, spare.search
		}
	}
	// Evaluator declined (or the engine kind changed): the advanced clone
	// is still sound, rebuild only the evaluator over it.
	eval, err := buildEvaluator(n.kind, gc, &n.ctr.planCompiles)
	if err != nil {
		return nil, nil, nil
	}
	return gc, eval, n.searchEngine(eval, gc, spare.search)
}

// CanAccessAll decides access to one resource for many requesters in a
// single call, fanning large batches out across a worker pool. All
// decisions are made against one engine snapshot, so the result is a
// consistent view even if mutations land mid-batch. The returned slice is
// index-aligned with requesters. On any evaluation error the batch is
// abandoned and the first error is returned.
func (n *Network) CanAccessAll(resource string, requesters []UserID) ([]Decision, error) {
	s, err := n.snapshot()
	if err != nil {
		return nil, err
	}
	defer s.release()
	n.ctr.batchChecks.Add(1)
	n.ctr.checks.Add(uint64(len(requesters)))
	return s.decideAll(core.ResourceID(resource), requesters)
}

// fanOutMin is the batch size from which decideAll fans out over goroutines.
// Whether that pays depends on what one decision costs, since every decision
// ends in the audit log's mutex. Serial vs fanned out on two cores
// (BenchmarkCanAccessAll, medians of three to six runs): on the join index,
// ~6 µs a decision, 16 decisions are a wash (89 vs 90 µs), 32 gain 1.2x (199
// vs 161 µs), 64 gain 1.3x (412 vs 309 µs) and 2 000 gain 1.6x (14.8 vs 9.1
// ms); on the online search, ~0.5 µs a decision, fanning out loses at every
// size — 16: 10 vs 22 µs, 32: 20 vs 37 µs, 64: 34 vs 47 µs, 2 000: 0.97 vs
// 1.07 ms, a quarter of the fanned CPU time being AuditLog.Record under
// contention. 64 keeps a serving-layer check-batch (16) serial on both and
// bounds the online loss to 13 µs a batch where the index starts to gain.
const fanOutMin = 64

// decideAll is CanAccessAll's body over an already-pinned snapshot, shared
// with View.CanAccessAll.
func (s *snapshot) decideAll(res core.ResourceID, requesters []UserID) ([]Decision, error) {
	out := make([]Decision, len(requesters))
	workers := min(runtime.GOMAXPROCS(0), len(requesters))
	if workers <= 1 || len(requesters) < fanOutMin {
		for i, r := range requesters {
			d, err := s.engine.Decide(res, r)
			if err != nil {
				return nil, err
			}
			out[i] = d
		}
		return out, nil
	}
	var (
		err     error
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(requesters) {
					return
				}
				d, derr := s.engine.Decide(res, requesters[i])
				if derr != nil {
					errOnce.Do(func() { err = derr })
					failed.Store(true)
					return
				}
				out[i] = d
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return out, nil
}
