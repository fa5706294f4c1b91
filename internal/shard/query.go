package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"reachac"
	"reachac/client"
	"reachac/internal/httpapi"
)

// classify wraps transport-level failures as ErrShardUnavailable while
// letting real API answers through untouched — anything a remote shard put on
// the wire, and every row of the wire table bar "closed": a shard that
// ANSWERED "unknown user" (or shed the call) is healthy; a shard that did not
// answer at all, or is closed, must fail the query closed.
func classify(err error) error {
	if err == nil {
		return nil
	}
	var apiErr *client.Error
	if errors.As(err, &apiErr) {
		return err
	}
	for _, row := range httpapi.Errors {
		if row.Err != reachac.ErrClosed && errors.Is(err, row.Err) {
			return err
		}
	}
	return fmt.Errorf("%w: %v", ErrShardUnavailable, err)
}

// sweepResult is the outcome of one distributed reachability search.
type sweepResult struct {
	accepted map[string]struct{}
	// visited is the complete retired-state set of the search — what the
	// audience cache keeps to maintain entries incrementally.
	visited map[reachac.ShardState]struct{}
	found   bool
	// failed lists shard indexes that did not answer a round: their subtrees
	// are missing, so accepted is an under-approximation.
	failed []int
}

// sweep drives the distributed product-BFS for one (owner, path) from the
// owner's shard outward. pathExpr must be canonical (callers parse). retain
// asks the shards for their complete retired-state sets (see sweepFrom).
func (r *Router) sweep(ctx context.Context, owner, pathExpr, requester string, retain bool) (sweepResult, error) {
	start := reachac.ShardState{Name: owner, Step: 0, D: 0}
	visited := map[reachac.ShardState]struct{}{start: {}}
	return r.sweepFrom(ctx, pathExpr, requester, []reachac.ShardState{start}, visited, retain)
}

// sweepFrom runs the distributed search from explicit seed states over a
// caller-supplied visited set (which it grows in place): each round
// dispatches the frontier slices to their owning shards, merges accepted
// names, and re-dispatches the boundary exits the visited set has not
// retired. Seeding a non-trivial frontier with a previous sweep's visited
// set RESUMES that sweep — how the audience cache extends entries under edge
// adds. A non-empty requester turns it into a point query with cross-shard
// early exit. Shard failures are recorded in failed, never silently dropped.
// retain additionally merges every state the shards retired (not just the
// boundary exits) into visited, making it COMPLETE — required when the
// result seeds the audience cache, whose incremental maintenance reasons
// from state absence.
func (r *Router) sweepFrom(ctx context.Context, pathExpr, requester string, seeds []reachac.ShardState, visited map[reachac.ShardState]struct{}, retain bool) (sweepResult, error) {
	res := sweepResult{accepted: make(map[string]struct{}), visited: visited}
	r.scatter.Add(1)
	cancel := context.CancelFunc(func() {})
	if !r.local {
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}

	frontier := make(map[int][]reachac.ShardState, 1)
	for _, st := range seeds {
		visited[st] = struct{}{}
		idx := r.ring.Owner(st.Name)
		frontier[idx] = append(frontier[idx], st)
	}
	failed := make(map[int]struct{})

	type reply struct {
		idx  int
		resp reachac.ShardExpandResponse
		err  error
	}
	for len(frontier) > 0 && !res.found {
		r.expandRounds.Add(1)
		replies := make([]reply, 0, len(frontier))
		if r.local {
			// In-process backends: dispatch the round sequentially — no
			// goroutines, deadlines or cancellation plumbing to pay for.
			for idx, states := range frontier {
				if _, down := failed[idx]; down {
					continue
				}
				r.expandCalls.Add(1)
				resp, err := r.backends[idx].Expand(ctx, reachac.ShardExpandRequest{
					Path:      pathExpr,
					Shards:    len(r.backends),
					VNodes:    r.cfg.VNodes,
					Self:      idx,
					States:    states,
					Requester: requester,
					Retired:   retain,
				})
				replies = append(replies, reply{idx: idx, resp: resp, err: err})
				if err == nil && resp.Found {
					break // point query answered
				}
			}
		} else {
			var mu sync.Mutex
			var wg sync.WaitGroup
			for idx, states := range frontier {
				if _, down := failed[idx]; down {
					continue // don't re-dial a shard that already failed this sweep
				}
				wg.Add(1)
				r.expandCalls.Add(1)
				go func(idx int, states []reachac.ShardState) {
					defer wg.Done()
					var resp reachac.ShardExpandResponse
					err := r.call(ctx, idx, func(ctx context.Context, b Backend) error {
						var e error
						resp, e = b.Expand(ctx, reachac.ShardExpandRequest{
							Path:      pathExpr,
							Shards:    len(r.backends),
							VNodes:    r.cfg.VNodes,
							Self:      idx,
							States:    states,
							Requester: requester,
							Retired:   retain,
						})
						return e
					})
					mu.Lock()
					replies = append(replies, reply{idx: idx, resp: resp, err: err})
					mu.Unlock()
					if err == nil && resp.Found {
						cancel() // point query answered: stop sibling dispatches
					}
				}(idx, states)
			}
			wg.Wait()
		}

		for _, rep := range replies {
			if rep.err == nil && rep.resp.Found {
				res.found = true
			}
		}
		next := make(map[int][]reachac.ShardState)
		for _, rep := range replies {
			if rep.err != nil {
				if !res.found {
					// When a sibling found the requester it cancelled this
					// call — that is an answer, not a shard failure.
					failed[rep.idx] = struct{}{}
				}
				continue
			}
			for _, name := range rep.resp.Accepted {
				res.accepted[name] = struct{}{}
			}
			for _, st := range rep.resp.Exits {
				if _, dup := visited[st]; dup {
					continue
				}
				visited[st] = struct{}{}
				owner := r.ring.Owner(st.Name)
				next[owner] = append(next[owner], st)
			}
		}
		// Merge the complete retired sets only AFTER the exits formed the next
		// frontier: a shard's exits are a subset of its retired states, so
		// merging first would mark them visited and stall the sweep.
		for _, rep := range replies {
			if rep.err != nil {
				continue
			}
			for _, st := range rep.resp.Retired {
				visited[st] = struct{}{}
			}
		}
		frontier = next
	}

	for idx := range failed {
		res.failed = append(res.failed, idx)
	}
	sort.Ints(res.failed)
	return res, nil
}

// condAudience returns the member-name set one condition reaches from
// owner, through the router's incrementally-maintained cache: a cached
// entry is kept correct by audienceDelta as edges change, so a hit needs no
// validation at all. Partial results (failed non-empty) are NEVER cached,
// and neither is a sweep that raced a mutation of one of its labels (the
// epoch check below) — such a sweep may have missed the concurrent delta
// AND the delta's maintenance scan, so dropping it is the only safe move.
func (r *Router) condAudience(ctx context.Context, owner string, cond parsedCond) (map[string]struct{}, []int, error) {
	key := owner + "\x00" + cond.expr
	caching := r.cfg.AudienceCacheEntries > 0
	var epochs map[string]uint64
	if caching {
		r.amu.Lock()
		if e := r.audCache[key]; e != nil {
			m := e.members
			r.amu.Unlock()
			r.audHits.Add(1)
			return m, nil, nil
		}
		epochs = make(map[string]uint64, len(cond.labels))
		for _, l := range cond.labels {
			epochs[l] = r.labelEpoch[l]
		}
		r.amu.Unlock()
		r.audMisses.Add(1)
	}
	res, err := r.sweep(ctx, owner, cond.expr, "", caching)
	if err != nil {
		return nil, nil, err
	}
	if len(res.failed) > 0 {
		return res.accepted, res.failed, nil
	}
	if caching {
		r.amu.Lock()
		stale := false
		for l, ep := range epochs {
			if r.labelEpoch[l] != ep {
				stale = true
				break
			}
		}
		if !stale {
			if len(r.audCache) >= r.cfg.AudienceCacheEntries {
				for k := range r.audCache { // evict an arbitrary entry
					delete(r.audCache, k)
					break
				}
			}
			r.audCache[key] = &audEntry{
				owner:   owner,
				expr:    cond.expr,
				path:    cond.path,
				labels:  cond.labels,
				members: res.accepted,
				visited: res.visited,
			}
		}
		r.amu.Unlock()
	}
	return res.accepted, nil, nil
}

// delegate reports whether (and where) a query on this policy can be
// answered whole by one shard: always with a single backend, and for
// depth-1-only policies, whose every condition is decidable from the
// resource owner's complete local adjacency.
func (r *Router) delegate(pol *resourcePolicy) (int, bool) {
	if len(r.backends) == 1 {
		return 0, true
	}
	if pol != nil && pol.depth1 {
		return r.ring.Owner(pol.owner), true
	}
	return 0, false
}

// Check decides one access request. Co-locatable queries delegate to the
// owning shard (its native engine and audit trail); the
// rest scatter: each rule condition becomes a distributed audience the
// requester is tested against, with results cached under per-label epochs.
// A shard failure on the scatter path fails the check CLOSED.
func (r *Router) Check(ctx context.Context, resource, requester string) (httpapi.Decision, error) {
	pol := r.policyFor(resource)
	if idx, ok := r.delegate(pol); ok {
		r.fastPath.Add(1)
		var d httpapi.Decision
		err := r.call(ctx, idx, func(ctx context.Context, b Backend) error {
			var e error
			d, e = b.Check(ctx, resource, requester)
			return e
		})
		if err = classify(err); errors.Is(err, ErrShardUnavailable) {
			r.failedClosed.Add(1)
		}
		return d, err
	}
	r.scatter.Add(1)
	if missing, err := r.resolveUsers(ctx, []string{requester}); err != nil {
		return httpapi.Decision{}, err
	} else if len(missing) > 0 {
		return httpapi.Decision{}, fmt.Errorf("user %q: %w", requester, reachac.ErrUnknownUser)
	}
	d, err := r.decide(ctx, pol, resource, requester)
	if err != nil {
		return httpapi.Decision{}, err
	}
	r.record(d)
	return d, nil
}

// decide evaluates the policy for one requester using distributed condition
// audiences; the caller has already resolved the requester's existence.
// Reasons mirror core.Engine.Decide so sharded and single-node deployments
// explain themselves identically.
func (r *Router) decide(ctx context.Context, pol *resourcePolicy, resource, requester string) (httpapi.Decision, error) {
	d := httpapi.Decision{Resource: resource, Requester: requester, Effect: "deny"}
	if pol == nil {
		d.Reason = "unknown resource"
		return d, nil
	}
	if requester == pol.owner {
		d.Effect = "allow"
		d.Rule = "owner"
		d.Reason = "requester owns the resource"
		return d, nil
	}
	for _, rule := range pol.rules {
		valid := true
		for _, cond := range rule.conds {
			members, failedShards, err := r.condAudience(ctx, pol.owner, cond)
			if err != nil {
				return httpapi.Decision{}, err
			}
			if len(failedShards) > 0 {
				r.failedClosed.Add(1)
				return httpapi.Decision{}, fmt.Errorf("%w: shards %v unreachable evaluating rule %q", ErrShardUnavailable, failedShards, rule.id)
			}
			if _, ok := members[requester]; !ok {
				valid = false
				break
			}
		}
		if valid {
			d.Effect = "allow"
			d.Rule = rule.id
			d.Reason = fmt.Sprintf("all conditions of rule %q satisfied", rule.id)
			return d, nil
		}
	}
	d.Reason = "no access rule satisfied"
	return d, nil
}

// CheckBatch decides one resource for many requesters. Any unknown
// requester fails the whole batch (matching the single-node server); any
// unreachable shard fails it closed.
func (r *Router) CheckBatch(ctx context.Context, resource string, requesters []string) ([]httpapi.Decision, error) {
	pol := r.policyFor(resource)
	if idx, ok := r.delegate(pol); ok {
		r.fastPath.Add(1)
		var ds []httpapi.Decision
		err := r.call(ctx, idx, func(ctx context.Context, b Backend) error {
			var e error
			ds, e = b.CheckBatch(ctx, resource, requesters)
			return e
		})
		if err = classify(err); errors.Is(err, ErrShardUnavailable) {
			r.failedClosed.Add(1)
		}
		return ds, err
	}
	r.scatter.Add(1)
	if missing, err := r.resolveUsers(ctx, requesters); err != nil {
		return nil, err
	} else if len(missing) > 0 {
		return nil, fmt.Errorf("user %q: %w", missing[0], reachac.ErrUnknownUser)
	}
	out := make([]httpapi.Decision, len(requesters))
	for i, req := range requesters {
		d, err := r.decide(ctx, pol, resource, req)
		if err != nil {
			return nil, err
		}
		r.record(d)
		out[i] = d
	}
	return out, nil
}

// Audience enumerates the members the resource's rules admit:
// ∪_rules ∩_conditions of distributed condition audiences, excluding the
// owner, sorted by name. Unreachable shards degrade the answer to a partial
// (under-approximate) set, reported via the returned shard indexes — the
// caller surfaces them (X-Shard-Partial) rather than failing reads outright.
func (r *Router) Audience(ctx context.Context, resource string) ([]string, []int, error) {
	pol := r.policyFor(resource)
	if pol == nil {
		return nil, nil, fmt.Errorf("audience of %q: %w", resource, reachac.ErrUnknownResource)
	}
	if idx, ok := r.delegate(pol); ok {
		r.fastPath.Add(1)
		var names []string
		err := r.call(ctx, idx, func(ctx context.Context, b Backend) error {
			var e error
			names, _, e = b.Audience(ctx, resource)
			return e
		})
		return names, nil, classify(err)
	}
	r.scatter.Add(1)
	union := make(map[string]struct{})
	failed := make(map[int]struct{})
	for _, rule := range pol.rules {
		var inter map[string]struct{}
		short := false
		for ci, cond := range rule.conds {
			members, failedShards, err := r.condAudience(ctx, pol.owner, cond)
			if err != nil {
				return nil, nil, err
			}
			for _, idx := range failedShards {
				failed[idx] = struct{}{}
			}
			if ci == 0 {
				inter = members
			} else {
				nx := make(map[string]struct{})
				for m := range inter {
					if _, ok := members[m]; ok {
						nx[m] = struct{}{}
					}
				}
				inter = nx
			}
			if len(inter) == 0 {
				short = true
				break
			}
		}
		if !short {
			for m := range inter {
				union[m] = struct{}{}
			}
		}
	}
	delete(union, pol.owner)
	names := make([]string, 0, len(union))
	for m := range union {
		names = append(names, m)
	}
	sort.Strings(names)
	partial := make([]int, 0, len(failed))
	for idx := range failed {
		partial = append(partial, idx)
	}
	sort.Ints(partial)
	if len(partial) > 0 {
		r.partial.Add(1)
	}
	return names, partial, nil
}

// Reach answers a raw point reachability query (does a path matching expr
// lead from owner to requester?) with cross-shard early exit. A positive
// answer stands even if some shard failed; an incomplete negative fails
// closed.
func (r *Router) Reach(ctx context.Context, owner, requester, expr string) (bool, error) {
	canonical, err := reachac.ParsePath(expr)
	if err != nil {
		return false, err
	}
	if missing, err := r.resolveUsers(ctx, []string{owner, requester}); err != nil {
		return false, err
	} else if len(missing) > 0 {
		return false, fmt.Errorf("user %q: %w", missing[0], reachac.ErrUnknownUser)
	}
	res, err := r.sweep(ctx, owner, canonical, requester, false)
	if err != nil {
		return false, err
	}
	if res.found {
		return true, nil
	}
	if len(res.failed) > 0 {
		r.failedClosed.Add(1)
		return false, fmt.Errorf("%w: shards %v unreachable", ErrShardUnavailable, res.failed)
	}
	return false, nil
}

// ReachAudience enumerates every member expr reaches from owner, excluding
// the owner, sorted by name; unreachable shards degrade it to a flagged
// partial answer like Audience.
func (r *Router) ReachAudience(ctx context.Context, owner, expr string) ([]string, []int, error) {
	canonical, err := reachac.ParsePath(expr)
	if err != nil {
		return nil, nil, err
	}
	if missing, err := r.resolveUsers(ctx, []string{owner}); err != nil {
		return nil, nil, err
	} else if len(missing) > 0 {
		return nil, nil, fmt.Errorf("user %q: %w", owner, reachac.ErrUnknownUser)
	}
	res, err := r.sweep(ctx, owner, canonical, "", false)
	if err != nil {
		return nil, nil, err
	}
	delete(res.accepted, owner)
	names := make([]string, 0, len(res.accepted))
	for m := range res.accepted {
		names = append(names, m)
	}
	sort.Strings(names)
	if len(res.failed) > 0 {
		r.partial.Add(1)
	}
	return names, res.failed, nil
}
