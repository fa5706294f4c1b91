package search

import (
	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// This file is the point query, searched from both ends at once (meet in the
// middle): forward from the owner over the plan's steps, and backward from
// the requester over their reversal (pathexpr.Reverse), one BFS layer at a
// time. Both sides share the flat kernel's layout and scratch (flat.go).
//
// Meet rule. A position (n, s, d) — at node n, in step s, d edges of it
// consumed — meets a position of the other side at the same node, in the same
// pattern step (k-1-s in the other's numbering, for a k-step pattern), whose
// depth d' completes that step: MinDepth ≤ d+d' ≤ MaxDepth, or d+d' ≥
// MinDepth for an unbounded step, which canonical depths decide exactly
// (pathexpr.Step.DKey). Predicates need no test there. Each step's predicates
// must hold at the node it ends on; the forward side tests them for every
// step it closes, and the backward side, whose reversed steps carry the
// predicates of the step ending where they end, for every step it closes —
// all of them but the last, whose end is the requester: Reachable tests those
// (revPreds) before it searches, and the requester's seed stands for them.
//
// Termination. Each layer expands the side whose pending layer admits fewer
// traversals (see choose), and every position it reaches is marked and
// probed against the other side's marks. A match of L edges splits, after any i of them,
// into an owner-side position at distance at most i and a requester-side
// one at most L-i: once the sides have expanded L layers between them, both
// have been reached, and whichever was reached later found the other. So a
// search is a deny once the layers sum to the plan's maxLen, or once a
// side's pending layer admits no traversal: that side has reached all its
// positions, among them each match's last, which found the other side's
// seed.
//
// A position at a bounded step's MaxDepth cannot be expanded, and it is
// probed but never marked: the layout has no bit for it
// (pathexpr.Step.Depths), and no later probe needs one. Say the forward side
// reached (n, s, MaxDepth). It meets only the backward side's depth 0 of
// step s at n, which the backward side reaches by closing step s+1 at n
// (step s's predicates hold there). The traversal that does so also
// continues step s+1, to a position that meets (n, s+1, 0), and the forward
// traversal that reached (n, s, MaxDepth) closed step s at n into that very
// (n, s+1, 0). For the last step, depth 0 of the backward side is the
// requester's seed, which every probe sees. The same holds with the sides
// swapped.
//
// Two shortcuts keep a shallow query as cheap as a one-sided search. A side
// that has not expanded holds only its seed, and is probed by comparing with
// it, leaving its bitset untouched. The layer that brings the sum to maxLen
// probes its positions without marking them, since nothing would expand or
// probe them later.

// half is one side of a meet search.
type half struct {
	c    *compiled
	seed graph.NodeID
	// visited is the side's position bitset in c's layout; the seed is
	// marked in it when the side first expands.
	visited []uint64
	// marked lists the positions the side has marked, seed first, in order;
	// marked[head:] is the layer it expands next.
	marked []uint64
	head   int
	// fan counts the traversals that the positions marked[head:counted] of
	// the next layer admit, the whole layer's once complete; layers counts
	// the layers expanded.
	counted, fan, layers int
}

// count adds the traversals the next uncounted position of h's pending
// layer admits to fan.
func (h *half) count(csr *graph.CSR) {
	n, s, _ := unpackState(h.marked[h.counted])
	h.fan += fanout(csr, n, &h.c.steps[s])
	h.counted++
}

// complete reports whether fan counts h's whole pending layer.
func (h *half) complete() bool { return h.counted == len(h.marked) }

// choose returns the side whose pending layer admits fewer traversals, fw
// on a tie, with its fan complete. It counts the layers only as far as the
// choice needs: it extends the side with the smaller partial count until
// one side is complete and its count below the other's partial one (not
// above, for fw), so it chooses as complete counts would. The side not
// chosen keeps its partial count for the next choice, and a side's last
// pending layer, never expanded, is counted only as far as a choice read
// it.
func choose(csr *graph.CSR, fw, bw *half) *half {
	for {
		switch {
		case fw.complete() && fw.fan <= bw.fan:
			return fw
		case bw.complete() && bw.fan < fw.fan:
			return bw
		case bw.fan < fw.fan:
			bw.count(csr)
		default:
			fw.count(csr)
		}
	}
}

// holds reports whether h has marked, at node n in step s of its numbering,
// a position whose depth lies in [lo, hi].
func (h *half) holds(n graph.NodeID, s, lo, hi int32) bool {
	if h.layers == 0 {
		return n == h.seed && s == 0 && lo == 0
	}
	b := h.c.bit(n, s, 0)
	return anySet(h.visited, b+uint64(lo), b+uint64(hi))
}

// meet searches for a match of pl from owner to requester from both ends.
// Every label of pl must occur in the graph, pl must fit it (see fits), and
// the requester must satisfy pl.revPreds.
func (e *Engine) meet(pl *Plan, owner, requester graph.NodeID) bool {
	csr := e.g.CSR()
	sc := scratchPool.Get().(*scratch)
	words := pl.flatWords(e.g.NumNodes())
	fw := half{c: &pl.compiled, seed: owner, visited: sized(sc.visited, words),
		marked: append(sc.frontier[:0], packState(owner, 0, 0))}
	bw := half{c: &pl.rev, seed: requester, visited: sized(sc.backVisited, words),
		marked: append(sc.backMarked[:0], packState(requester, 0, 0))}
	met := false
	for layers := 0; !met && layers < pl.maxLen; layers++ {
		h, o := choose(csr, &fw, &bw), &fw
		if h == &fw {
			o = &bw
		}
		if h.fan == 0 {
			break
		}
		met = e.advance(csr, h, o, layers+1 == pl.maxLen)
	}
	if fw.layers > 0 {
		fw.c.unmark(fw.visited, fw.marked)
	}
	if bw.layers > 0 {
		bw.c.unmark(bw.visited, bw.marked)
	}
	sc.visited, sc.frontier, sc.backVisited, sc.backMarked = fw.visited, fw.marked, bw.visited, bw.marked
	scratchPool.Put(sc)
	return met
}

// advance expands h's next layer, probing o with every position it reaches,
// and reports whether the two sides met. The final layer only probes.
func (e *Engine) advance(csr *graph.CSR, h, o *half, final bool) bool {
	g, c := e.g, h.c
	if h.layers == 0 {
		c.mark(h.visited, h.seed, 0, 0)
	}
	h.layers++
	last := int32(len(c.steps) - 1)
	// The position being expanded and what one more edge of its step
	// allows.
	var (
		st       *compiledStep
		step, dk int32
		mayClose bool
	)
	// reach takes position (n, s, d) into the layer and reports whether it
	// meets o. Like visit below, it is made once per layer and does not
	// escape.
	reach := func(n graph.NodeID, s, d int32) bool {
		ps := &c.steps[s]
		if !final && ps.MayContinue(int(d)) {
			if !c.mark(h.visited, n, s, d) {
				return false
			}
			h.marked = append(h.marked, packState(n, s, d))
		}
		lo, hi := max(int32(ps.MinDepth)-d, 0), int32(ps.Depths()-1)
		if !ps.Unbounded {
			hi = min(int32(ps.MaxDepth)-d, hi)
		}
		return o.holds(n, last-s, lo, hi)
	}
	// visit takes one traversal to next: it may close the step there, and
	// it continues the step.
	visit := func(next graph.NodeID) bool {
		if mayClose && step < last && st.predsHold(g, next) && reach(next, step+1, 0) {
			return true
		}
		return reach(next, step, dk)
	}
	for end := len(h.marked); h.head < end; h.head++ {
		node, s, d := unpackState(h.marked[h.head])
		step, st = s, &c.steps[s]
		if !st.MayContinue(int(d)) {
			continue
		}
		d1 := int(d) + 1
		mayClose, dk = st.MayClose(d1), int32(st.DKey(d1))
		if st.Dir != pathexpr.In {
			for _, nb := range csr.OutNeighbors(node, st.label) {
				if visit(graph.NodeID(nb)) {
					return true
				}
			}
		}
		if st.Dir != pathexpr.Out {
			for _, nb := range csr.InNeighbors(node, st.label) {
				if visit(graph.NodeID(nb)) {
					return true
				}
			}
		}
	}
	h.counted, h.fan = h.head, 0
	return false
}

// fanout counts the traversals from node n that step st admits, predicates
// aside: O(1) run-length reads of the CSR.
func fanout(csr *graph.CSR, n graph.NodeID, st *compiledStep) int {
	count := 0
	if st.Dir != pathexpr.In {
		count += len(csr.OutNeighbors(n, st.label))
	}
	if st.Dir != pathexpr.Out {
		count += len(csr.InNeighbors(n, st.label))
	}
	return count
}

// anySet reports whether any bit in [lo, hi] of b is set.
func anySet(b []uint64, lo, hi uint64) bool {
	for w := lo >> 6; w <= hi>>6; w++ {
		m := ^uint64(0)
		if w == lo>>6 {
			m <<= lo & 63
		}
		if w == hi>>6 {
			m &= ^uint64(0) >> (63 - hi&63)
		}
		if b[w]&m != 0 {
			return true
		}
	}
	return false
}
