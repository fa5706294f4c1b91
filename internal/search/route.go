package search

import (
	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// This file exposes the engine's query-cost hooks to the facade's router
// (reachac.routedEval): first-step seed fan-outs for both endpoints of a
// pattern (RouteCosts) and execution of the reversed pattern from the
// requester (ReachableReverse).

// RouteCosts estimates, for one reachability query, the seed fan-out of
// starting the product search at each endpoint: fwd counts owner's
// traversals admitted by the pattern's first step, rev counts requester's
// traversals admitted by the reversed pattern's first step (the last step
// with its orientation flipped). Both are O(1) run-length reads of the CSR.
// Both endpoints must be valid nodes.
func (e *Engine) RouteCosts(owner, requester graph.NodeID, p *pathexpr.Path) (fwd, rev int, err error) {
	pl, err := e.Plan(p)
	if err != nil {
		return 0, 0, err
	}
	fwd, rev = e.RouteCostsPlan(owner, requester, pl)
	return fwd, rev, nil
}

// RouteCostsPlan is RouteCosts for a caller that already holds the
// expression's plan.
func (e *Engine) RouteCostsPlan(owner, requester graph.NodeID, pl *Plan) (fwd, rev int) {
	return e.seedCount(owner, &pl.steps[0]), e.seedCount(requester, &pl.rev.steps[0])
}

// ReachableReverse answers Reachable(owner, requester, p) by running the
// reversed pattern from the requester: owner ⊨p⊨> requester iff the
// reversal's source predicates hold on the requester and requester
// ⊨reverse(p)⊨> owner (see pathexpr.Reverse). It is profitable when the
// requester's cone is smaller than the owner's; decisions are identical to
// Reachable either way.
func (e *Engine) ReachableReverse(owner, requester graph.NodeID, p *pathexpr.Path) (bool, error) {
	if !e.g.ValidNode(owner) || !e.g.ValidNode(requester) {
		// Delegate for uniform error wording.
		return e.Reachable(owner, requester, p)
	}
	pl, err := e.Plan(p)
	if err != nil {
		return false, err
	}
	return e.ReachableReversePlan(owner, requester, pl), nil
}

// ReachableReversePlan is ReachableReverse for a caller that already holds
// the expression's plan; both endpoints must be valid nodes.
func (e *Engine) ReachableReversePlan(owner, requester graph.NodeID, pl *Plan) bool {
	for _, pr := range pl.revPreds {
		if !pr.Eval(e.g.Node(requester).Attrs) {
			return false
		}
	}
	return e.reach(requester, owner, &pl.rev)
}

// seedCount counts the traversals of node n admitted as the first edge of a
// pattern starting with st (predicates do not affect fan-out): O(1)
// run-length reads of the CSR. On a graph too large to have one the estimate
// is 0 for either endpoint, which leaves the choice of route to chance and
// the decision unchanged.
func (e *Engine) seedCount(n graph.NodeID, st *compiledStep) int {
	c := e.g.CSR()
	if !st.labelOK || c == nil {
		return 0
	}
	count := 0
	if st.Dir != pathexpr.In {
		count += len(c.OutNeighbors(n, st.label))
	}
	if st.Dir != pathexpr.Out {
		count += len(c.InNeighbors(n, st.label))
	}
	return count
}
