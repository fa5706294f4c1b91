package search

import (
	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// This file is how a point query picks its endpoint. Reachable compares the
// first-step seed fan-out of both endpoints (RouteCostsPlan) and runs the
// product search from the cheaper one: forward from the owner, or the
// reversed pattern backward from the requester (reverse). Both answer the
// same question, so the choice moves cost, never a decision.

// RouteCostsPlan estimates, for one reachability query under pl, the seed
// fan-out of starting the product search at each endpoint: fwd counts
// owner's traversals admitted by the pattern's first step, rev counts
// requester's traversals admitted by the reversed pattern's first step (the
// last step with its orientation flipped). Both are O(1) run-length reads of
// the CSR. Both endpoints must be valid nodes.
func (e *Engine) RouteCostsPlan(owner, requester graph.NodeID, pl *Plan) (fwd, rev int) {
	return e.seedCount(owner, &pl.steps[0]), e.seedCount(requester, &pl.rev.steps[0])
}

// reverse answers Reachable(owner, requester, p) by running the reversed
// pattern from the requester: owner ⊨p⊨> requester iff the reversal's
// source predicates hold on the requester and requester ⊨reverse(p)⊨> owner
// (see pathexpr.Reverse). Both endpoints must be valid nodes.
func (e *Engine) reverse(owner, requester graph.NodeID, pl *Plan) bool {
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
// is 0 for either endpoint, so the search runs forward.
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
