package search

import (
	"fmt"
	"sync"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// AudienceCache memoizes per-(owner, path) audience sets over one graph and
// keeps them fresh incrementally: when the graph is fast-forwarded by a
// recorded delta batch (the snapshot republication path), Advance extends
// the cached product-BFS states through the added edges instead of
// recomputing from scratch. Additions are monotone — a new edge can only
// add matching paths — so the old visited set plus an expansion seeded at
// the new edge is exactly the new fixpoint. Non-monotone deltas (edge
// removals, label growth affecting a previously-absent label) drop only the
// entries they can touch; those recompute lazily on next use.
//
// The cache is the engine behind the facade's Audience/PathAudience: it
// answers repeat audience queries in microseconds regardless of the engine
// kind selected for reachability checks, which all agree with the product
// BFS by the differential test suite.
//
// Audience returns slices owned by the cache; callers must treat them as
// immutable. Get-style reads lock briefly; Advance requires the caller to
// guarantee quiescence (the publisher's contract for a retired snapshot).
type AudienceCache struct {
	e  *Engine
	mu sync.RWMutex
	// entries is keyed by owner and canonical path text.
	entries map[audKey]*audEntry
	// frontier is the reusable expansion queue for Advance.
	frontier []uint64
}

type audKey struct {
	owner graph.NodeID
	path  string
}

// audEntry is one cached audience: the plan it was computed under, the full
// product-BFS visited bitset (the incremental state), the audience
// membership bitset, and its materialized sorted form.
type audEntry struct {
	c       *Plan
	visited []uint64
	member  []uint64
	out     []graph.NodeID
	dirty   bool
}

// maxAudienceCacheEntries bounds the cache; beyond it audiences are computed
// per call without caching. Entries are per (owner, path) — i.e. per shared
// rule condition — so real policy sets stay far below the cap.
const maxAudienceCacheEntries = 4096

// NewAudienceCache returns an empty cache over g. The graph may be advanced
// in place later via Advance; it must otherwise stay quiescent during use,
// which snapshot clones guarantee.
func NewAudienceCache(g *graph.Graph) *AudienceCache {
	return &AudienceCache{e: New(g), entries: make(map[audKey]*audEntry)}
}

// Graph returns the graph the cache reads.
func (ac *AudienceCache) Graph() *graph.Graph { return ac.e.g }

// Engine returns the online search engine the cache runs on. The facade's
// routed evaluator uses it to execute flat searches against the same graph
// clone (and the same warmed plan cache) the audience cache reads.
func (ac *AudienceCache) Engine() *Engine { return ac.e }

// Len returns the number of cached audience entries.
func (ac *AudienceCache) Len() int {
	ac.mu.RLock()
	defer ac.mu.RUnlock()
	return len(ac.entries)
}

// Peek answers Reachable(owner, requester, p) from an already-materialized
// audience entry: a map probe plus one bitset test, allocation-free. It
// never computes on a miss — ok=false means the caller must evaluate some
// other way. A dirty entry is still served (only the sorted materialization
// is stale, the membership bitset is the current fixpoint).
func (ac *AudienceCache) Peek(owner, requester graph.NodeID, p *pathexpr.Path) (member, ok bool) {
	g := ac.e.g
	if !g.ValidNode(owner) || !g.ValidNode(requester) {
		return false, false
	}
	pl, err := ac.e.Plan(p)
	if err != nil {
		return false, false
	}
	return ac.PeekPlan(owner, requester, pl)
}

// PeekPlan is Peek for a caller that already holds the expression's plan
// from Engine().Plan; both endpoints must be valid nodes.
func (ac *AudienceCache) PeekPlan(owner, requester graph.NodeID, c *Plan) (member, ok bool) {
	g := ac.e.g
	ac.mu.RLock()
	defer ac.mu.RUnlock()
	ent, exists := ac.entries[audKey{owner, c.key}]
	if !exists || (ent.c.anyMissing && ent.c.labelsLen != g.NumLabels()) {
		return false, false
	}
	w := int(requester >> 6)
	if w >= len(ent.member) {
		return false, false
	}
	return ent.member[w]&(1<<(requester&63)) != 0, true
}

// Audience returns the set of members reachable from owner through a path
// matching p, in ascending node-ID order (the owner appears only on a
// genuine cycle). The result is served from the cache when possible and is
// owned by it: callers must not modify the returned slice.
// Audience implements core.AudienceSource.
func (ac *AudienceCache) Audience(owner graph.NodeID, p *pathexpr.Path) ([]graph.NodeID, error) {
	g := ac.e.g
	if !g.ValidNode(owner) {
		return nil, fmt.Errorf("search: invalid owner %d", owner)
	}
	c, err := ac.e.Plan(p)
	if err != nil {
		return nil, err
	}
	if !c.flatOK(g) {
		// Pathological state space: compute without caching.
		return ac.e.AudienceSet(owner, p)
	}
	key := audKey{owner, c.key}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	old, exists := ac.entries[key]
	if exists && !(old.c.anyMissing && old.c.labelsLen != g.NumLabels()) {
		if old.dirty {
			old.out = appendBits(old.out[:0], old.member)
			old.dirty = false
		}
		return old.out, nil
	}
	ent := ac.compute(c, owner)
	if exists || len(ac.entries) < maxAudienceCacheEntries {
		ac.entries[key] = ent
	}
	return ent.out, nil
}

// compute runs the full product BFS for (owner, c) into a fresh entry.
// Callers hold ac.mu.
func (ac *AudienceCache) compute(c *Plan, owner graph.NodeID) *audEntry {
	v := ac.e.g.NumNodes()
	ent := &audEntry{
		c:       c,
		visited: make([]uint64, c.flatWords(v)),
		member:  make([]uint64, (v+63)/64),
	}
	if !c.anyMissing {
		ac.runEntry(ent, append(ac.frontier[:0], packState(owner, 0, 0)))
		ent.out = appendBits(nil, ent.member)
	}
	return ent
}

// runEntry runs the flat kernel over ent's bitsets from seeds, dropping those
// already marked, and reports whether any was not. Callers hold ac.mu.
func (ac *AudienceCache) runEntry(ent *audEntry, seeds []uint64) bool {
	sc := scratch{visited: ent.visited, member: ent.member, frontier: seeds}
	ac.e.runFlat(&ent.c.compiled, &sc, query{target: graph.InvalidNode, collect: true})
	ac.frontier = sc.frontier
	return len(sc.frontier) > 0
}

// Advance brings every cached entry up to date after the cache's graph has
// been fast-forwarded (in place) by deltas. Edge additions extend entries
// incrementally; removals drop the entries whose path uses the removed
// label (others cannot be affected); node additions grow the bitsets;
// compactions change nothing the cache can see. The caller must guarantee
// no concurrent readers, which the snapshot-advance protocol does.
func (ac *AudienceCache) Advance(deltas []graph.Delta) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if len(ac.entries) == 0 {
		return
	}
	g := ac.e.g
	// Drop entries a removal could touch, and entries compiled while one of
	// their labels was still absent if the label table has since grown.
	nl := g.NumLabels()
	for _, d := range deltas {
		if d.Op != graph.OpRemoveEdge {
			continue
		}
		l, ok := g.LookupLabel(d.Label)
		if !ok {
			continue
		}
		for key, ent := range ac.entries {
			if ent.usesLabel(l) {
				delete(ac.entries, key)
			}
		}
	}
	v := g.NumNodes()
	for key, ent := range ac.entries {
		if ent.c.anyMissing && ent.c.labelsLen != nl {
			delete(ac.entries, key)
			continue
		}
		if !ent.c.flatOK(g) {
			delete(ac.entries, key)
			continue
		}
		ent.visited = grow(ent.visited, ent.c.flatWords(v))
		ent.member = grow(ent.member, (v+63)/64)
	}
	// Extend surviving entries through each added edge.
	for _, d := range deltas {
		if d.Op != graph.OpAddEdge {
			continue
		}
		l, ok := g.LookupLabel(d.Label)
		if !ok {
			continue
		}
		for _, ent := range ac.entries {
			ac.extend(ent, d.From, d.To, l)
		}
	}
}

// usesLabel reports whether the entry's path constrains on l.
func (ent *audEntry) usesLabel(l graph.Label) bool {
	for i := range ent.c.steps {
		if ent.c.steps[i].labelOK && ent.c.steps[i].label == l {
			return true
		}
	}
	return false
}

// grow extends a bitset to words entries, preserving existing bits.
func grow(b []uint64, words int) []uint64 {
	for len(b) < words {
		b = append(b, 0)
	}
	return b
}

// extend incorporates one added edge (from -l-> to) into an entry: every
// previously reached product state that could traverse the edge seeds a BFS
// expansion over the (already advanced) graph. Because the old visited set
// is a fixpoint of the old graph, any newly matching path must cross a new
// edge first at a previously reached state, so these seeds are complete.
// Callers hold ac.mu.
func (ac *AudienceCache) extend(ent *audEntry, from, to graph.NodeID, l graph.Label) {
	c := ent.c
	seeds := ac.frontier[:0]
	for si := range c.steps {
		st := &c.steps[si]
		if !st.labelOK || st.label != l {
			continue
		}
		if st.Dir != pathexpr.In {
			seeds = ac.seedEdge(ent, seeds, int32(si), from, to)
		}
		if st.Dir != pathexpr.Out {
			seeds = ac.seedEdge(ent, seeds, int32(si), to, from)
		}
	}
	if ac.runEntry(ent, seeds) {
		ent.dirty = true
	}
}

// seedEdge simulates traversing the new edge from every reached state
// (u, si, d): it marks the members the traversal closes the path at, and
// appends the states it leads to, reached before or not, to seeds.
func (ac *AudienceCache) seedEdge(ent *audEntry, seeds []uint64, si int32, u, next graph.NodeID) []uint64 {
	c := ent.c
	st := &c.steps[si]
	last := int32(len(c.steps) - 1)
	for d := 0; d < st.Depths(); d++ {
		bit := c.bit(u, si, int32(d))
		if ent.visited[bit>>6]&(1<<(bit&63)) == 0 {
			continue
		}
		d1 := d + 1
		if st.MayClose(d1) && st.predsHold(ac.e.g, next) {
			if si < last {
				seeds = append(seeds, packState(next, si+1, 0))
			} else if ent.member[next>>6]&(1<<(next&63)) == 0 {
				ent.member[next>>6] |= 1 << (next & 63)
				ent.dirty = true
			}
		}
		if st.MayContinue(d1) {
			seeds = append(seeds, packState(next, si, int32(st.DKey(d1))))
		}
	}
	return seeds
}
