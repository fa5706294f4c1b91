package joinindex

import (
	"fmt"

	"reachac/internal/graph"
	"reachac/internal/linegraph"
	"reachac/internal/pathexpr"
	"reachac/internal/reldb"
)

// Reachable reports whether requester is reachable from owner through a
// path matching p, evaluated over the index.
func (idx *Index) Reachable(owner, requester graph.NodeID, p *pathexpr.Path) (bool, error) {
	if !idx.g.ValidNode(owner) || !idx.g.ValidNode(requester) {
		return false, fmt.Errorf("joinindex: invalid node (owner=%d requester=%d)", owner, requester)
	}
	if idx.g.Version() != idx.builtAt {
		return false, ErrStale
	}
	if idx.opts.Strategy == EvalPaperJoin {
		lqs, err := linegraph.ExpandQuery(p, idx.opts.MaxUnbounded, idx.opts.MaxExpansions)
		if err != nil {
			return false, err
		}
		for i := range lqs {
			lq := &lqs[i]
			var ok bool
			if allOutgoing(lq) {
				ok, err = idx.evalPaperJoin(owner, requester, lq)
			} else {
				ok, err = idx.evalAnchored(owner, requester, p)
			}
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	}
	return idx.evalAnchored(owner, requester, p)
}

// allOutgoing reports whether every step of the line query is a '+' step —
// the query class the paper's join machinery composes (head-to-tail).
func allOutgoing(lq *linegraph.LineQuery) bool {
	for _, s := range lq.Steps {
		if s.Dir != pathexpr.Out {
			return false
		}
	}
	return true
}

// traversal is one oriented use of a social edge during anchored evaluation.
type traversal struct {
	edge    graph.Edge
	forward bool
}

func (t traversal) head() graph.NodeID {
	if t.forward {
		return t.edge.To
	}
	return t.edge.From
}

// admits reports whether traversal tr may match line step pos of lq:
// label, orientation, and — when the step closes an original path step —
// that step's attribute predicates at the traversal head.
func (idx *Index) admits(lq *linegraph.LineQuery, pos int, tr traversal) bool {
	s := lq.Steps[pos]
	l, found := idx.g.LookupLabel(s.Label)
	if !found || tr.edge.Label != l {
		return false
	}
	switch s.Dir {
	case pathexpr.Out:
		if !tr.forward {
			return false
		}
	case pathexpr.In:
		if tr.forward {
			return false
		}
	}
	if s.EndOfStep {
		for _, pr := range lq.Src.Steps[s.OrigStep].Preds {
			if !pr.Eval(idx.g.Node(tr.head()).Attrs) {
				return false
			}
		}
	}
	return true
}

// evalAnchored runs the index-guided product search over the original
// query's step machine (one walk covers every depth expansion, and
// unbounded steps are handled exactly): start from the owner's incident
// traversals admitted by the first step, walk both edge orientations of G
// through the automaton states, and — whenever the remaining pattern is all
// outgoing — prune any branch whose forward line node cannot reach one of
// the requester's admitted final line nodes according to the precomputed
// reachability labels.
func (idx *Index) evalAnchored(owner, requester graph.NodeID, p *pathexpr.Path) (bool, error) {
	if err := p.Validate(); err != nil {
		return false, err
	}
	k := len(p.Steps)
	// Resolve labels; an absent label, or one no edge carries yet (no CSR
	// cells), can never match.
	csr := idx.g.CSR()
	labels := make([]graph.Label, k)
	for i, st := range p.Steps {
		l, ok := idx.g.LookupLabel(st.Label)
		if !ok || int(l) >= csr.NumLabels() {
			return false, nil
		}
		labels[i] = l
	}
	// sfx[i] reports whether steps i..k-1 are all outgoing; on such
	// suffixes every remaining traversal is forward, so line-graph
	// reachability from the current traversal to a final traversal is a
	// necessary condition for a match.
	sfx := make([]bool, k+1)
	sfx[k] = true
	for i := k - 1; i >= 0; i-- {
		sfx[i] = sfx[i+1] && p.Steps[i].Dir == pathexpr.Out
	}

	stepPredsHold := func(i int, n graph.NodeID) bool {
		for _, pr := range p.Steps[i].Preds {
			if !pr.Eval(idx.g.Node(n).Attrs) {
				return false
			}
		}
		return true
	}
	// The last step's predicates always apply to the requester; a failure
	// denies outright.
	if !stepPredsHold(k-1, requester) {
		return false, nil
	}

	// Final candidates: traversals of the last step's label ending at the
	// requester, in an admitted orientation.
	last := p.Steps[k-1]
	nFinals := 0
	if last.Dir != pathexpr.In {
		nFinals += len(csr.InNeighbors(requester, labels[k-1]))
	}
	if last.Dir != pathexpr.Out {
		nFinals += len(csr.OutNeighbors(requester, labels[k-1]))
	}
	if nFinals == 0 {
		return false, nil
	}

	// finalLine holds the forward line nodes of the final candidates, for
	// the look-ahead, which resolves them on its first test.
	var finalLine []int32
	finalsResolved := false
	lookahead := func(fwd graph.EdgeID, step int) bool {
		if idx.opts.DisableLookahead || !sfx[step] || fwd == graph.InvalidEdge {
			return true
		}
		x := idx.l.Forward(fwd)
		if x < 0 {
			return true
		}
		if !finalsResolved {
			finalsResolved = true
			if last.Dir != pathexpr.In {
				idx.g.LabeledInEdges(requester, labels[k-1], func(e graph.Edge) bool {
					if ln := idx.l.Forward(e.ID); ln >= 0 {
						finalLine = append(finalLine, ln)
					}
					return true
				})
			}
		}
		for _, f := range finalLine {
			if idx.lineReach(x, f) {
				return true
			}
		}
		return false
	}

	// Automaton state: having consumed the d-th edge of step i, now at
	// member node. Future transitions depend only on (node, i, d), so
	// states deduplicate on the landing node — the traversal identity
	// matters only for the look-ahead test. Depths are canonicalized by
	// pathexpr.Step.DKey, which closes and continues them by the step's
	// MayClose and MayContinue.
	type state struct {
		node graph.NodeID
		step int
		d    int
	}
	seen := make(map[[3]uint32]bool)
	var queue []state

	// push consumes one step-i traversal landing on h as the d-th edge of
	// step i: fwd is the edge of a forward traversal, InvalidEdge for a
	// backward one, which needs no edge ID because the look-ahead only
	// tests forward traversals. It reports whether this completes a full
	// match.
	push := func(h graph.NodeID, fwd graph.EdgeID, i, d int) bool {
		st := &p.Steps[i]
		if i == k-1 && st.MayClose(d) && h == requester {
			// Last-step predicates were pre-checked on the requester.
			return true
		}
		dk := st.DKey(d)
		if i == k-1 && !st.MayContinue(dk) {
			// The state can neither close into a next step nor continue,
			// so it leads nowhere.
			return false
		}
		key := [3]uint32{uint32(h), uint32(i), uint32(dk)}
		if seen[key] {
			return false
		}
		seen[key] = true
		if !lookahead(fwd, i) {
			return false
		}
		queue = append(queue, state{h, i, dk})
		return false
	}

	// expandFrom consumes one step-i edge out of member h (as depth d),
	// iterating only the label cells and orientations the step admits; it
	// reports whether a full match was completed.
	expandFrom := func(h graph.NodeID, i, d int) bool {
		st := &p.Steps[i]
		done := false
		if st.Dir != pathexpr.In {
			idx.g.LabeledOutEdges(h, labels[i], func(e graph.Edge) bool {
				done = push(e.To, e.ID, i, d)
				return !done
			})
			if done {
				return true
			}
		}
		if st.Dir != pathexpr.Out {
			for _, m := range csr.InNeighbors(h, labels[i]) {
				if push(graph.NodeID(m), graph.InvalidEdge, i, d) {
					return true
				}
			}
		}
		return false
	}

	// Seed with the owner's incident traversals as the first edge of step 0.
	if expandFrom(owner, 0, 1) {
		return true, nil
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		// Option 1: close step cur.step here and start the next one.
		if cur.step+1 < k && p.Steps[cur.step].MayClose(cur.d) && stepPredsHold(cur.step, cur.node) {
			if expandFrom(cur.node, cur.step+1, 1) {
				return true, nil
			}
		}
		// Option 2: continue the current step.
		if p.Steps[cur.step].MayContinue(cur.d) {
			if expandFrom(cur.node, cur.step, cur.d+1) {
				return true, nil
			}
		}
	}
	return false, nil
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// PaperJoinTuples evaluates an all-outgoing line query with the literal
// §3.3 strategy: a chain of reachability joins over the base tables,
// W-table-pruned unless disabled. The returned tuple set has NOT yet been
// post-processed.
func (idx *Index) PaperJoinTuples(lq *linegraph.LineQuery) (*reldb.TupleSet, error) {
	if !allOutgoing(lq) {
		return nil, fmt.Errorf("joinindex: paper join supports outgoing steps only, got %s", lq)
	}
	k := len(lq.Steps)
	tables := make([]*reldb.Table, k)
	for i := 0; i < k; i++ {
		tables[i] = idx.BaseTable(lq.Steps[i].Label)
		if tables[i] == nil || tables[i].Len() == 0 {
			return &reldb.TupleSet{}, nil
		}
	}
	ts := reldb.FromTable(tables[0])
	for i := 1; i < k; i++ {
		var next *reldb.TupleSet
		var ok bool
		if idx.opts.DisableWTable {
			next, ok = ts.Extend(tables[i], idx.opts.MaxTuples)
		} else {
			next, ok = idx.extendViaWTable(ts, lq, i)
		}
		if !ok {
			return nil, fmt.Errorf("joinindex: intermediate result exceeds %d tuples", idx.opts.MaxTuples)
		}
		ts = next
		if ts.Len() == 0 {
			break
		}
	}
	return ts, nil
}

// extendViaWTable extends a tuple set to position pos using the W-table: a
// tuple with last element x gains successor y iff some center w in
// W(label(pos-1), label(pos)) has x ∈ U_w and y ∈ V_w.
func (idx *Index) extendViaWTable(ts *reldb.TupleSet, lq *linegraph.LineQuery, pos int) (*reldb.TupleSet, bool) {
	la, okA := idx.g.LookupLabel(lq.Steps[pos-1].Label)
	lb, okB := idx.g.LookupLabel(lq.Steps[pos].Label)
	if !okA || !okB {
		return &reldb.TupleSet{}, true
	}
	centers := idx.wtable[wKey{la, lb}]
	if len(centers) == 0 {
		return &reldb.TupleSet{}, true
	}
	centerSet := make(map[int32]bool, len(centers))
	for _, w := range centers {
		centerSet[w] = true
	}
	// Per relevant center, V_w restricted to the target label.
	vOf := make(map[int32][]int32, len(centers))
	for _, w := range centers {
		for _, y := range idx.clusters[w].V {
			if idx.l.Nodes[y].Label == lb {
				vOf[w] = append(vOf[w], y)
			}
		}
	}

	out := &reldb.TupleSet{}
	seen := make(map[int32]bool)
	for i, tup := range ts.Tuples {
		x := ts.LastRow(i)
		clear(seen)
		for _, w := range x.Out {
			if !centerSet[w] {
				continue
			}
			for _, y := range vOf[w] {
				if seen[y] {
					continue
				}
				seen[y] = true
				if idx.opts.MaxTuples > 0 && out.Len() >= idx.opts.MaxTuples {
					return nil, false
				}
				nt := make([]int32, len(tup)+1)
				copy(nt, tup)
				nt[len(tup)] = y
				out.Append(nt, idx.rowOf[y])
			}
		}
	}
	return out, true
}

// PostProcess applies §3.4 to a joined tuple set: keep only tuples whose
// elements are pairwise adjacent (a single path, not disjoint paths), whose
// first traversal starts at the owner, whose last traversal ends at the
// requester, and whose end-of-step heads satisfy the step predicates.
// It returns the surviving tuples.
func (idx *Index) PostProcess(owner, requester graph.NodeID, lq *linegraph.LineQuery, ts *reldb.TupleSet) [][]int32 {
	var out [][]int32
	for _, tup := range ts.Tuples {
		if idx.tupleSurvives(owner, requester, lq, tup) {
			out = append(out, tup)
		}
	}
	return out
}

func (idx *Index) tupleSurvives(owner, requester graph.NodeID, lq *linegraph.LineQuery, tup []int32) bool {
	if len(tup) != len(lq.Steps) {
		return false
	}
	if idx.l.Nodes[tup[0]].Tail != owner {
		return false
	}
	if idx.l.Nodes[tup[len(tup)-1]].Head != requester {
		return false
	}
	for i := 0; i+1 < len(tup); i++ {
		if idx.l.Nodes[tup[i]].Head != idx.l.Nodes[tup[i+1]].Tail {
			return false
		}
	}
	for i := range lq.Steps {
		n := idx.l.Nodes[tup[i]]
		// The line node is a traversal of its edge; admits reads the edge's
		// label and head, which the node carries.
		e := graph.Edge{ID: n.Edge, From: n.Tail, To: n.Head, Label: n.Label}
		if !n.Forward {
			e.From, e.To = n.Head, n.Tail
		}
		if !idx.admits(lq, i, traversal{edge: e, forward: true}) {
			return false
		}
	}
	return true
}

// evalPaperJoin is the boolean wrapper over PaperJoinTuples + PostProcess.
func (idx *Index) evalPaperJoin(owner, requester graph.NodeID, lq *linegraph.LineQuery) (bool, error) {
	ts, err := idx.PaperJoinTuples(lq)
	if err != nil {
		return false, err
	}
	return len(idx.PostProcess(owner, requester, lq, ts)) > 0, nil
}
