package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"

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
	found    bool
	// failed lists shard indexes that did not answer a round: their subtrees
	// are missing, so accepted is an under-approximation.
	failed []int
}

// sweep drives the distributed product-BFS for one (owner, path) from the
// owner's shard outward. pathExpr must be canonical (callers parse). Each
// round dispatches the frontier slices to their owning shards at once,
// merges accepted names, and re-dispatches the boundary exits no earlier
// round produced. A non-empty requester turns it into a point query with
// cross-shard early exit. Shard failures are recorded in failed, never
// silently dropped.
func (r *Router) sweep(ctx context.Context, owner, pathExpr, requester string) sweepResult {
	res := sweepResult{accepted: make(map[string]struct{})}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	start := reachac.ShardState{Name: owner}
	visited := map[reachac.ShardState]struct{}{start: {}}
	frontier := map[int][]reachac.ShardState{r.ring.Owner(owner): {start}}
	failed := make(map[int]struct{})
	resps := make([]reachac.ShardExpandResponse, len(r.backends))
	for len(frontier) > 0 && !res.found {
		r.expandRounds.Add(1)
		idxs := make([]int, 0, len(frontier))
		for idx := range frontier {
			if _, down := failed[idx]; !down { // don't re-dial a shard that failed this sweep
				idxs = append(idxs, idx)
			}
		}
		r.expandCalls.Add(uint64(len(idxs)))
		errs := r.fanOut(ctx, idxs, func(ctx context.Context, i int, b Backend) error {
			var e error
			resps[i], e = b.Expand(ctx, reachac.ShardExpandRequest{
				Path:      pathExpr,
				Shards:    len(r.backends),
				VNodes:    r.cfg.VNodes,
				Self:      i,
				States:    frontier[i],
				Requester: requester,
			})
			if e == nil && resps[i].Found {
				cancel() // point query answered: stop sibling dispatches
			}
			return e
		})

		for k, idx := range idxs {
			if errs[k] == nil && resps[idx].Found {
				res.found = true
			}
		}
		next := make(map[int][]reachac.ShardState)
		for k, idx := range idxs {
			if errs[k] != nil {
				if !res.found {
					// When a sibling found the requester it cancelled this
					// call — that is an answer, not a shard failure.
					failed[idx] = struct{}{}
				}
				continue
			}
			for _, name := range resps[idx].Accepted {
				res.accepted[name] = struct{}{}
			}
			for _, st := range resps[idx].Exits {
				if _, dup := visited[st]; dup {
					continue
				}
				visited[st] = struct{}{}
				owner := r.ring.Owner(st.Name)
				next[owner] = append(next[owner], st)
			}
		}
		frontier = next
	}

	for idx := range failed {
		res.failed = append(res.failed, idx)
	}
	sort.Ints(res.failed)
	return res
}

// condSweeps memoizes the condition sweeps of one request, keyed by
// canonical path text: a CheckBatch or an Audience sweeps each distinct
// condition once, and nothing outlives the call that made it.
type condSweeps map[string]sweepResult

// condAudience returns the sweep of one condition from owner, running it
// unless this request already has.
func (r *Router) condAudience(ctx context.Context, owner string, cond parsedCond, memo condSweeps) sweepResult {
	res, ok := memo[cond.expr]
	if !ok {
		res = r.sweep(ctx, owner, cond.expr, "")
		memo[cond.expr] = res
	}
	return res
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
// owning shard (its native engine and audit trail); the rest scatter: each
// rule condition becomes a distributed audience, swept afresh, that the
// requester is tested against. A shard failure on the scatter path fails the
// check CLOSED.
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
	d, err := r.decide(ctx, pol, resource, requester, condSweeps{})
	if err != nil {
		return httpapi.Decision{}, err
	}
	r.record(d)
	return d, nil
}

// decide evaluates the policy for one requester using distributed condition
// audiences, sweeping each condition at most once per memo; the caller has
// already resolved the requester's existence. Reasons mirror
// core.Engine.Decide so sharded and single-node deployments explain
// themselves identically.
func (r *Router) decide(ctx context.Context, pol *resourcePolicy, resource, requester string, memo condSweeps) (httpapi.Decision, error) {
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
			res := r.condAudience(ctx, pol.owner, cond, memo)
			if len(res.failed) > 0 {
				r.failedClosed.Add(1)
				return httpapi.Decision{}, fmt.Errorf("%w: shards %v unreachable evaluating rule %q", ErrShardUnavailable, res.failed, rule.id)
			}
			if _, ok := res.accepted[requester]; !ok {
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
	memo := condSweeps{}
	for i, req := range requesters {
		d, err := r.decide(ctx, pol, resource, req, memo)
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
	memo := condSweeps{}
	for _, rule := range pol.rules {
		var inter map[string]struct{}
		short := false
		for ci, cond := range rule.conds {
			res := r.condAudience(ctx, pol.owner, cond, memo)
			for _, idx := range res.failed {
				failed[idx] = struct{}{}
			}
			if ci == 0 {
				inter = res.accepted
			} else {
				nx := make(map[string]struct{})
				for m := range inter {
					if _, ok := res.accepted[m]; ok {
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
	r.scatter.Add(1)
	res := r.sweep(ctx, owner, canonical, requester)
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
	r.scatter.Add(1)
	res := r.sweep(ctx, owner, canonical, "")
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
