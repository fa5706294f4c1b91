package reachac

import (
	"sync/atomic"

	"reachac/internal/pathexpr"
	"reachac/internal/search"
)

// routeCounters tallies the reachability queries routedEval answered, per
// route. One block lives as long as the Network (see Stats.PlannerRoute*).
type routeCounters struct {
	audience    atomic.Uint64
	flatForward atomic.Uint64
	flatReverse atomic.Uint64
	primary     atomic.Uint64
}

// routedEval is the per-query router WithPlanner wraps around one
// snapshot's primary evaluator. Each reachability query takes the first
// route that applies:
//
//  1. the snapshot's audience cache, when the owner's audience for the
//     path is already materialized (an O(1) bitset probe — audience
//     queries warm it for the point checks that follow);
//  2. on the Online kind, the flat product-BFS from whichever endpoint
//     admits fewer first-step traversals (the CSR makes both counts O(1));
//  3. on the precomputed kinds (Closure, Index), the primary evaluator.
//
// Every route returns identical decisions (the differential suite pins
// this), so routing only moves cost around. One routedEval is built per
// snapshot publication.
type routedEval struct {
	ctr     *routeCounters
	primary Evaluator
	online  *search.Engine
	aud     *search.AudienceCache
	// flat is set on the Online kind: the primary IS the flat search, so
	// only the endpoint is left to choose.
	flat bool
}

// Reachable implements core.Evaluator. It resolves the expression's plan
// once; the audience probe, the cost estimate and either flat search then
// run off that handle. Invalid inputs delegate straight to the primary
// evaluator for uniform error wording.
func (r *routedEval) Reachable(owner, requester UserID, p *pathexpr.Path) (bool, error) {
	g := r.aud.Graph()
	if !g.ValidNode(owner) || !g.ValidNode(requester) {
		return r.primary.Reachable(owner, requester, p)
	}
	pl, err := r.online.Plan(p)
	if err != nil {
		return r.primary.Reachable(owner, requester, p)
	}
	if member, ok := r.aud.PeekPlan(owner, requester, pl); ok {
		r.ctr.audience.Add(1)
		return member, nil
	}
	if !r.flat {
		r.ctr.primary.Add(1)
		return r.primary.Reachable(owner, requester, p)
	}
	if fwd, rev := r.online.RouteCostsPlan(owner, requester, pl); rev < fwd {
		r.ctr.flatReverse.Add(1)
		return r.online.ReachableReversePlan(owner, requester, pl), nil
	}
	r.ctr.flatForward.Add(1)
	return r.online.ReachablePlan(owner, requester, pl), nil
}

// PlannerOptions is WithPlanner's argument. It has no fields left; the type
// stays declared because benchmark/setup.go passes an empty literal.
type PlannerOptions struct{}

// WithPlanner enables per-query routing: every reachability query is
// answered from the audience cache when it holds the answer, otherwise by
// the flat search from the cheaper endpoint (Online) or by the selected
// engine (see routedEval). Decisions are identical to the static engine's.
// It applies to New, FromGraph and Open.
func WithPlanner(PlannerOptions) Option {
	return func(c *openConfig) { c.route = true }
}
