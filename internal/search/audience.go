package search

import (
	"fmt"
	"math/bits"
	"sort"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// AudienceSet computes in one product traversal the set of all members
// reachable from owner through a path matching p — the full audience of an
// access condition. It costs the same as a single Reachable call (the
// product BFS explores the same state space), against |V| calls for the
// naive per-member loop. The owner is included only if a genuine cycle
// matches. Results are in ascending node-ID order.
func (e *Engine) AudienceSet(owner graph.NodeID, p *pathexpr.Path) ([]graph.NodeID, error) {
	return e.AppendAudience(nil, owner, p)
}

// AppendAudience is AudienceSet appending into dst (which may be nil) and
// returning the extended slice, so a caller reusing a sufficiently large
// buffer pays zero heap allocations on a warmed engine. Results are in
// ascending node-ID order starting at dst's existing length.
func (e *Engine) AppendAudience(dst []graph.NodeID, owner graph.NodeID, p *pathexpr.Path) ([]graph.NodeID, error) {
	if !e.g.ValidNode(owner) {
		return dst, fmt.Errorf("search: invalid owner %d", owner)
	}
	pl, err := e.Plan(p)
	if err != nil {
		return dst, err
	}
	c := &pl.compiled
	if c.anyMissing {
		return dst, nil
	}
	if !c.flatOK(e.g) {
		return append(dst, e.audienceSetMap(c.steps, owner)...), nil
	}
	sc := scratchPool.Get().(*scratch)
	dst = e.audienceFlat(sc, c, dst, owner)
	scratchPool.Put(sc)
	return dst, nil
}

// appendBits appends the set bit positions of member to dst in ascending
// order.
func appendBits(dst []graph.NodeID, member []uint64) []graph.NodeID {
	for wi, w := range member {
		for w != 0 {
			dst = append(dst, graph.NodeID(wi*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// audienceSetMap is the pre-flat map-based product BFS, kept as the
// fallback for state spaces beyond the flat layout's bounds.
func (e *Engine) audienceSetMap(steps []compiledStep, owner graph.NodeID) []graph.NodeID {
	start := state{node: owner, step: 0, d: 0}
	seen := map[state]bool{start: true}
	frontier := []state{start}
	audience := make(map[graph.NodeID]bool)

	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		st := &steps[cur.step]

		expand := func(next graph.NodeID) {
			d := int(cur.d) + 1
			// Close the step here when allowed.
			if st.mayClose(d) && st.predsHold(e.g, next) {
				if int(cur.step) == len(steps)-1 {
					audience[next] = true
				} else {
					ns := state{node: next, step: cur.step + 1, d: 0}
					if !seen[ns] {
						seen[ns] = true
						frontier = append(frontier, ns)
					}
				}
			}
			// Continue the step.
			if st.mayContinue(d) {
				ns := state{node: next, step: cur.step, d: uint16(st.dKey(d))}
				if !seen[ns] {
					seen[ns] = true
					frontier = append(frontier, ns)
				}
			}
		}

		if st.dir == pathexpr.Out || st.dir == pathexpr.Both {
			e.g.OutEdges(cur.node, func(edge graph.Edge) bool {
				if edge.Label == st.label {
					expand(edge.To)
				}
				return true
			})
		}
		if st.dir == pathexpr.In || st.dir == pathexpr.Both {
			e.g.InEdges(cur.node, func(edge graph.Edge) bool {
				if edge.Label == st.label {
					expand(edge.From)
				}
				return true
			})
		}
	}

	out := make([]graph.NodeID, 0, len(audience))
	for id := range audience {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
