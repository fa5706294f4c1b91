package reachac

import (
	"time"

	"reachac/internal/pathexpr"
	"reachac/internal/planner"
	"reachac/internal/search"
)

// routedEval is the planner's per-query router, wrapped around one
// snapshot's primary evaluator. For each reachability query it picks the
// cheapest execution on the current snapshot:
//
//  1. the snapshot's audience cache, when the owner's audience for the
//     path is already materialized (an O(1) bitset probe — audience
//     queries warm it for the point checks that follow);
//  2. the flat product-BFS from whichever endpoint admits fewer
//     first-step traversals (the CSR makes both counts O(1));
//  3. the primary evaluator, raced ε-greedily against the flat search on
//     heavy engines so the EWMAs keep tracking which side wins.
//
// Every strategy returns identical decisions (the differential suite pins
// this), so routing only moves cost around. One routedEval is built per
// snapshot publication; the Planner behind it is network-lifetime, so the
// learned latencies survive republication.
type routedEval struct {
	pl      *planner.Planner
	primary Evaluator
	online  *search.Engine
	aud     *search.AudienceCache
	kind    planner.Kind
}

// Reachable implements core.Evaluator with cost-based routing. It resolves
// the expression's plan once; the audience probe, the cost estimate and
// either flat search then run off that handle. Invalid inputs delegate
// straight to the primary evaluator for uniform error wording.
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
		r.pl.Route(planner.StratAudience)
		return member, nil
	}
	fwd, rev := r.online.RouteCostsPlan(owner, requester, pl)
	strat := r.pl.Choose(r.kind, fwd, rev)
	r.pl.Route(strat)
	if _, timed := r.pl.Next(); timed {
		start := time.Now()
		ok, err := r.exec(strat, owner, requester, p, pl)
		r.pl.Observe(strat, time.Since(start))
		return ok, err
	}
	return r.exec(strat, owner, requester, p, pl)
}

// exec runs one query with the chosen strategy; pl is p's plan on r.online.
func (r *routedEval) exec(strat planner.Strategy, owner, requester UserID, p *pathexpr.Path, pl *search.Plan) (bool, error) {
	switch strat {
	case planner.StratPrimary:
		return r.primary.Reachable(owner, requester, p)
	case planner.StratFlatReverse:
		return r.online.ReachableReversePlan(owner, requester, pl), nil
	default:
		return r.online.ReachablePlan(owner, requester, pl), nil
	}
}

// PlannerOptions configures planner-routed query execution for WithPlanner.
type PlannerOptions struct {
	// AutoMigrate lets the planner apply its whole-network engine
	// recommendations at publication time (switching n.kind as if by
	// UseEngine). When false the recommendation is only surfaced through
	// Stats.
	AutoMigrate bool
}

// WithPlanner enables cost-based per-query routing: every reachability
// query is answered by the cheapest of the audience cache, the flat search
// from either endpoint, or the selected engine, steered by observed
// latencies. Decisions are identical to the static engine's. It applies to
// New, FromGraph and Open.
func WithPlanner(o PlannerOptions) Option {
	return func(c *openConfig) {
		c.route = true
		c.planner = o
	}
}
