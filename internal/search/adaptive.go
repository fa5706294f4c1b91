package search

import (
	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// ReachableAdaptive is Reachable with endpoint selection: the product
// search starts from whichever endpoint admits fewer seed traversals. For
// policies like "celebrity's followers' friends", the owner side may fan
// out to millions while the requester side stays in the tens; evaluating
// the reversed pattern (pathexpr.Reverse) from the requester bounds the
// frontier by the smaller cone. Decisions are identical to Reachable.
//
// It is a thin shim over the planner cost hooks in route.go, resolving the
// plan once: RouteCostsPlan supplies the per-endpoint seed counts and
// ReachableReversePlan executes the plan's reversed pattern.
func (e *Engine) ReachableAdaptive(owner, requester graph.NodeID, p *pathexpr.Path) (bool, error) {
	if err := p.Validate(); err != nil {
		return false, err
	}
	if !e.g.ValidNode(owner) || !e.g.ValidNode(requester) {
		// Delegate for uniform error wording.
		return e.Reachable(owner, requester, p)
	}
	pl, err := e.Plan(p)
	if err != nil {
		return false, err
	}
	if fwd, rev := e.RouteCostsPlan(owner, requester, pl); rev < fwd {
		return e.ReachableReversePlan(owner, requester, pl), nil
	}
	return e.ReachablePlan(owner, requester, pl), nil
}

// Adaptive wraps an Engine so that its Reachable method uses adaptive
// endpoint selection, satisfying core.Evaluator.
type Adaptive struct {
	*Engine
}

// NewAdaptive returns an adaptive online evaluator over g.
func NewAdaptive(g *graph.Graph) Adaptive { return Adaptive{New(g)} }

// Reachable implements core.Evaluator via ReachableAdaptive.
func (a Adaptive) Reachable(owner, requester graph.NodeID, p *pathexpr.Path) (bool, error) {
	return a.ReachableAdaptive(owner, requester, p)
}
