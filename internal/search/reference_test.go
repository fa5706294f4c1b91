package search

import (
	"slices"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// refOutcome is what the reference search reports: whether it reached its
// target, the members it collected and, sorted, the states it marked (its
// exits among them) and its exits.
type refOutcome struct {
	found         bool
	members       []graph.NodeID
	marked, exits []uint64
}

// refSearch is the reference the kernel and the meet search are held to: a
// plain breadth-first search over (node, step, depth) states, deduplicated
// in a map, recording no parents. It reads adjacency from the graph's edge
// table (graph.Graph.Edges), not from the CSR the kernels read, and matches
// a step's label by name. It takes what the flat kernel takes — seeds, and a
// query's target, collection and foreign test — and states are packed and
// their depths canonical as the flat kernel's are, so that the two mark
// comparable sets.
func refSearch(g *graph.Graph, c *compiled, seeds []uint64, q query) refOutcome {
	out, in := make([][]graph.Edge, g.NumNodes()), make([][]graph.Edge, g.NumNodes())
	g.Edges(func(e graph.Edge) bool {
		out[e.From] = append(out[e.From], e)
		in[e.To] = append(in[e.To], e)
		return true
	})
	seen := make(map[uint64]bool)
	var queue, exits []uint64
	members := make(map[graph.NodeID]bool)
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	push := func(n graph.NodeID, step, d int32) {
		s := packState(n, step, d)
		if seen[s] {
			return
		}
		seen[s] = true
		if q.foreign != nil && q.foreign(n) {
			exits = append(exits, s)
		} else {
			queue = append(queue, s)
		}
	}
	found := false
	last := int32(len(c.steps) - 1)
	for head := 0; head < len(queue) && !found; head++ {
		n, step, d := unpackState(queue[head])
		st := &c.steps[step].Step
		d1 := int(d) + 1
		visit := func(e graph.Edge, next graph.NodeID) {
			if found || g.LabelName(e.Label) != st.Label {
				return
			}
			if st.MayClose(d1) && refPredsHold(st, g.Node(next).Attrs) {
				if step < last {
					push(next, step+1, 0)
				} else {
					if q.collect {
						members[next] = true
					}
					if next == q.target {
						found = true
						return
					}
				}
			}
			if st.MayContinue(d1) {
				push(next, step, int32(st.DKey(d1)))
			}
		}
		if st.Dir != pathexpr.In {
			for _, e := range out[n] {
				visit(e, e.To)
			}
		}
		if st.Dir != pathexpr.Out {
			for _, e := range in[n] {
				visit(e, e.From)
			}
		}
	}
	o := refOutcome{found: found, marked: sortedStates(queue, exits), exits: sortedStates(exits)}
	for m := range members {
		o.members = append(o.members, m)
	}
	slices.Sort(o.members)
	return o
}

func refPredsHold(st *pathexpr.Step, attrs graph.Attrs) bool {
	for _, p := range st.Preds {
		if !p.Eval(attrs) {
			return false
		}
	}
	return true
}

// refReachable answers Reachable by the reference search from the owner.
func refReachable(t testing.TB, e *Engine, owner, requester graph.NodeID, p *pathexpr.Path) bool {
	t.Helper()
	pl, err := e.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	return refSearch(e.g, &pl.compiled, []uint64{packState(owner, 0, 0)}, query{target: requester}).found
}
