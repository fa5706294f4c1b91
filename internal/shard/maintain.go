package shard

import (
	"context"

	"reachac"
	"reachac/internal/pathexpr"
)

// Incremental condition-audience maintenance.
//
// Every cached audience keeps the COMPLETE visited-state set of the sweep
// that built it: (name, step, d) states the distributed search retired. That
// set is what makes edge deltas cheap to reason about:
//
//   - An added edge whose traversal source was never visited at a step
//     matching its label cannot extend any partial path the sweep found —
//     the entry is untouched.
//   - An added edge whose source WAS visited extends the entry in place:
//     for predicate-free steps the router computes the post-edge states
//     itself (often just a new member, no shard traffic at all) and resumes
//     the sweep only for states it has not yet retired; predicate steps
//     re-expand the source state on its shard, which owns the attributes.
//   - A removed edge invalidates an entry only when its source was visited
//     at a consumable state — i.e. the sweep may actually have traversed it.
//     Entries the search never came near survive removals of their label.
//
// This replaces wholesale per-label epoch invalidation on the hot path; the
// label epochs remain solely to discard sweeps that raced a mutation at
// insert time (see condAudience).

// maxScanDepth bounds the per-step depth enumeration of the delta scan. A
// step with more canonical depths (pathexpr.Step.Depths) than this is
// cheaper to invalidate than to scan.
const maxScanDepth = 16

type deltaVerdict int

const (
	deltaNone deltaVerdict = iota
	deltaInvalidate
	deltaExtend
)

// deltaPlan is what one edge delta means for one cached entry: nothing, a
// drop, or an extension (new members decided router-side plus sweep seeds).
type deltaPlan struct {
	verdict deltaVerdict
	seeds   []reachac.ShardState
	members []string
}

func (p *deltaPlan) addSeed(st reachac.ShardState) {
	for _, s := range p.seeds {
		if s == st {
			return
		}
	}
	p.seeds = append(p.seeds, st)
}

func (p *deltaPlan) addMember(name string) {
	for _, m := range p.members {
		if m == name {
			return
		}
	}
	p.members = append(p.members, name)
}

// entryDelta classifies what the (un)relation of label between from and to
// means for e. Pure: reads e.visited and e.members, mutates nothing.
func entryDelta(e *audEntry, from, to, label string, mutual, added bool) deltaPlan {
	var plan deltaPlan
	edges := [2][2]string{{from, to}, {to, from}}
	nEdges := 1
	if mutual {
		nEdges = 2
	}
	steps := e.path.Steps
	last := len(steps) - 1
	for k := range steps {
		st := &steps[k]
		if st.Label != label {
			continue
		}
		if st.Depths() > maxScanDepth {
			return deltaPlan{verdict: deltaInvalidate}
		}
		for ei := 0; ei < nEdges; ei++ {
			var travs [2][2]string // {source, destination} per authorized orientation
			nt := 0
			if st.Dir == pathexpr.Out || st.Dir == pathexpr.Both {
				travs[nt] = edges[ei]
				nt++
			}
			if st.Dir == pathexpr.In || st.Dir == pathexpr.Both {
				travs[nt] = [2]string{edges[ei][1], edges[ei][0]}
				nt++
			}
			for ti := 0; ti < nt; ti++ {
				src, dst := travs[ti][0], travs[ti][1]
				for dv := 0; dv < st.Depths(); dv++ {
					if _, ok := e.visited[reachac.ShardState{Name: src, Step: k, D: dv}]; !ok {
						continue
					}
					if !added {
						// The sweep may have traversed the removed edge: the
						// entry can no longer be trusted.
						return deltaPlan{verdict: deltaInvalidate}
					}
					plan.verdict = deltaExtend
					if len(st.Preds) > 0 {
						// Node predicates are evaluated on the shards, which
						// hold the attributes: re-expand the source state.
						plan.addSeed(reachac.ShardState{Name: src, Step: k, D: dv})
						continue
					}
					d := dv + 1
					if st.MayClose(d) {
						if k == last {
							if _, dup := e.members[dst]; !dup {
								plan.addMember(dst)
							}
						} else {
							ns := reachac.ShardState{Name: dst, Step: k + 1, D: 0}
							if _, dup := e.visited[ns]; !dup {
								plan.addSeed(ns)
							}
						}
					}
					if st.MayContinue(d) {
						ns := reachac.ShardState{Name: dst, Step: k, D: st.DKey(d)}
						if _, dup := e.visited[ns]; !dup {
							plan.addSeed(ns)
						}
					}
				}
			}
		}
	}
	return plan
}

// audienceDelta folds one applied edge delta into the audience cache: bump
// the label epoch (insert-time tear detection), drop entries the delta may
// have shrunk, extend entries it grew. Serialized by mmu so concurrent
// mutations never race on an entry's visited set.
func (r *Router) audienceDelta(ctx context.Context, from, to, label string, mutual, added bool) {
	if r.cfg.AudienceCacheEntries <= 0 {
		return
	}
	r.mmu.Lock()
	defer r.mmu.Unlock()
	type job struct {
		key  string
		e    *audEntry
		plan deltaPlan
	}
	var jobs []job
	r.amu.Lock()
	r.labelEpoch[label]++
	for key, e := range r.audCache {
		if !e.usesLabel(label) {
			continue
		}
		plan := entryDelta(e, from, to, label, mutual, added)
		switch plan.verdict {
		case deltaInvalidate:
			delete(r.audCache, key)
			r.audInvalidates.Add(1)
		case deltaExtend:
			jobs = append(jobs, job{key: key, e: e, plan: plan})
		}
	}
	r.amu.Unlock()
	for _, j := range jobs {
		r.extendEntry(ctx, j.key, j.e, j.plan)
	}
}

// extendEntry applies an extension plan: resume the entry's sweep from the
// unretired seeds (the entry's own visited set prunes re-exploration), then
// swap in a grown members map copy-on-write — readers hold the old map.
func (r *Router) extendEntry(ctx context.Context, key string, e *audEntry, plan deltaPlan) {
	var grown map[string]struct{}
	if len(plan.seeds) > 0 {
		res, err := r.sweepFrom(ctx, e.expr, "", plan.seeds, e.visited, true)
		if err != nil || len(res.failed) > 0 {
			// Can't complete the extension: the entry is no longer whole.
			r.amu.Lock()
			if r.audCache[key] == e {
				delete(r.audCache, key)
				r.audInvalidates.Add(1)
			}
			r.amu.Unlock()
			return
		}
		grown = res.accepted
	}
	r.audExtends.Add(1)
	if len(grown) == 0 && len(plan.members) == 0 {
		return // only the visited set grew
	}
	r.amu.Lock()
	if r.audCache[key] == e {
		nm := make(map[string]struct{}, len(e.members)+len(grown)+len(plan.members))
		for m := range e.members {
			nm[m] = struct{}{}
		}
		for m := range grown {
			nm[m] = struct{}{}
		}
		for _, m := range plan.members {
			nm[m] = struct{}{}
		}
		e.members = nm
	}
	r.amu.Unlock()
}
