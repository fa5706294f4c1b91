package search

import (
	"fmt"
	"math/bits"

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
	pl, err := e.fittingPlan(p)
	if err != nil {
		return dst, err
	}
	if pl.anyMissing {
		return dst, nil
	}
	sc := scratchPool.Get().(*scratch)
	sc.member = sized(sc.member, (e.g.NumNodes()+63)/64)
	sc.frontier = append(sc.frontier[:0], packState(owner, 0, 0))
	e.run(&pl.compiled, sc, query{target: graph.InvalidNode, collect: true})
	dst = takeBits(dst, sc.member)
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

// takeBits is appendBits clearing the bits it appends.
func takeBits(dst []graph.NodeID, member []uint64) []graph.NodeID {
	n := len(dst)
	dst = appendBits(dst, member)
	for _, id := range dst[n:] {
		member[id>>6] &^= 1 << (id & 63)
	}
	return dst
}
