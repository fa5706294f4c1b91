package search

import (
	"sync"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// This file is the flat kernel, the allocation-free hot path of every entry
// point. The product search space (node, step, depth-key) is mapped to a
// dense integer range — node*states + stepBase[step] + d — so the visited
// set is a flat bitset instead of a map, the frontier is a reusable slice of
// packed uint64 states, and both live in a sync.Pool scratch that queries
// borrow and hand back all-zero. Adjacency always comes from the graph's
// label-partitioned CSR (see graph.CSR), which the graph keeps fresh across
// mutations; an engine over a graph that was never indexed builds it on its
// first query. A plan or graph the layout cannot serve (see flatOK) is
// searched by the map kernel of search.go instead.

// compiled is one direction of a plan: the steps of a pattern resolved
// against a graph, plus the dense state layout derived from them.
type compiled struct {
	steps    []compiledStep
	stepBase []int32
	// states is the per-node state count S: state (node, step, d) maps to
	// bit node*S + stepBase[step] + d.
	states int32
	// anyMissing is true when some step's label does not occur in the graph,
	// so no path can match.
	anyMissing bool
}

// Plan is a path expression compiled against one engine's graph: the pattern
// as written, searched from the owner, and its reversal (pathexpr.Reverse),
// searched from the requester. The reversal hangs off the plan instead of
// being cached under its own text because it is not an expression anyone
// wrote: its last step's predicates are split off into revPreds, so it only
// means something next to the plan it came from, and one lookup then serves
// either search direction.
//
// A Plan is immutable and valid only on the engine whose Plan method returned
// it, until that graph's label table grows.
type Plan struct {
	compiled
	rev      compiled
	revPreds []pathexpr.Pred
	// labelsLen is the graph's label count at compile time; a grown label
	// table invalidates the plan (a previously-absent label may now exist).
	labelsLen int
}

// maxFlatStates bounds node*states products (in bits) served by the flat
// kernel; beyond it the map kernel takes over. 2^31 bits = 256 MiB of
// visited bitset, far above any realistic policy.
const maxFlatStates = int64(1) << 31

// layOut assigns the dense state layout to compiled steps: each step gets
// one bit per canonical depth its states can hold (pathexpr.Step.Depths).
func layOut(steps []compiledStep) compiled {
	c := compiled{steps: steps, stepBase: make([]int32, len(steps))}
	for i := range steps {
		c.stepBase[i] = c.states
		c.states += int32(steps[i].Depths())
		if !steps[i].labelOK {
			c.anyMissing = true
		}
	}
	return c
}

// newPlan compiles p against g.
func newPlan(g *graph.Graph, p *pathexpr.Path) (*Plan, error) {
	steps, err := compile(g, p)
	if err != nil {
		return nil, err
	}
	rev, revPreds := pathexpr.Reverse(p)
	revSteps, err := compile(g, rev)
	if err != nil {
		return nil, err
	}
	return &Plan{
		compiled:  layOut(steps),
		rev:       layOut(revSteps),
		revPreds:  revPreds,
		labelsLen: g.NumLabels(),
	}, nil
}

// maxPlanCacheEntries bounds an engine's plan cache. Plans are keyed by
// expression, and a policy set draws its rules from a handful of templates,
// so the bound is only met by ad-hoc expressions (CheckPath) that never
// repeat; those then push out arbitrary entries, which recompile on next use.
const maxPlanCacheEntries = 1024

// Plan returns the compiled plan of p on this engine, compiling it on first
// use of the expression or after the graph's label table has grown.
// Structurally equal paths share one plan. The warm path is one lock-free
// map probe and, for a parsed path, allocates nothing.
func (e *Engine) Plan(p *pathexpr.Path) (*Plan, error) {
	key := p.String()
	if m := e.plans.Load(); m != nil {
		if pl := (*m)[key]; pl != nil && pl.labelsLen == e.g.NumLabels() {
			return pl, nil
		}
	}
	pl, err := newPlan(e.g, p)
	if err != nil {
		return nil, err
	}
	if e.PlanCompiles != nil {
		e.PlanCompiles.Add(1)
	}
	// Readers never lock, so a new plan is published in a copy of the map.
	// The copy stops one short of the bound: whatever the (randomly ordered)
	// iteration has not reached by then is evicted.
	e.planMu.Lock()
	defer e.planMu.Unlock()
	var cur map[string]*Plan
	if m := e.plans.Load(); m != nil {
		cur = *m
	}
	next := make(map[string]*Plan, min(len(cur)+1, maxPlanCacheEntries))
	for k, v := range cur {
		if len(next) == maxPlanCacheEntries-1 {
			break
		}
		if k != key {
			next[k] = v
		}
	}
	next[key] = pl
	e.plans.Store(&next)
	return pl, nil
}

// PlanCacheLen returns the number of cached plans.
func (e *Engine) PlanCacheLen() int {
	if m := e.plans.Load(); m != nil {
		return len(*m)
	}
	return 0
}

// scratch is the working set of one search: the visited bitset (flat kernel
// only), the member bitset over node IDs, the frontier — the seeds on entry,
// on return every state marked and not retired as an exit — and the exits.
// A parked scratch is all-zero over the whole capacity of visited and
// member: a search un-marks exactly the bits it marked before it returns
// the scratch, so taking one costs nothing, however many nodes the graph
// has.
type scratch struct {
	visited  []uint64
	member   []uint64
	frontier []uint64
	exits    []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// sized returns the all-zero bitset b (see scratch) with words entries.
func sized(b []uint64, words int) []uint64 {
	if cap(b) < words {
		return make([]uint64, words)
	}
	return b[:words]
}

// query is what a product search is asked beyond its seeds; both kernels
// take it.
type query struct {
	// target, unless graph.InvalidNode, ends the search as soon as it closes
	// the last step.
	target graph.NodeID
	// collect sets, in the scratch's member bitset, every node that closes
	// the last step.
	collect bool
	// foreign, when set, retires every generated state whose node it reports
	// true for into the scratch's exits, without expanding it. Seeds are
	// always expanded.
	foreign func(graph.NodeID) bool
}

// run searches from the seeds in sc.frontier with the kernel c can use on
// this graph, and leaves sc.visited all-zero. sc.member must cover the
// graph's nodes when q collects.
func (e *Engine) run(c *compiled, sc *scratch, q query) bool {
	if !c.flatOK(e.g) {
		found, _, _ := e.runMap(c, sc, q)
		return found
	}
	sc.visited = sized(sc.visited, c.flatWords(e.g.NumNodes()))
	found := e.runFlat(c, sc, q)
	c.unmark(sc.visited, sc.frontier)
	c.unmark(sc.visited, sc.exits)
	return found
}

// bit returns the visited bit of state (node, step, d) in c's layout.
func (c *compiled) bit(node graph.NodeID, step, d int32) uint64 {
	return uint64(node)*uint64(c.states) + uint64(c.stepBase[step]) + uint64(d)
}

// mark sets the visited bit of state (node, step, d) and reports whether it
// was clear.
func (c *compiled) mark(visited []uint64, node graph.NodeID, step, d int32) bool {
	bit := c.bit(node, step, d)
	w, m := bit>>6, uint64(1)<<(bit&63)
	if visited[w]&m != 0 {
		return false
	}
	visited[w] |= m
	return true
}

// unmark clears the visited bit of every state in states.
func (c *compiled) unmark(visited, states []uint64) {
	for _, packed := range states {
		bit := c.bit(unpackState(packed))
		visited[bit>>6] &^= 1 << (bit & 63)
	}
}

// packState packs (node, step, d) into one frontier word.
func packState(node graph.NodeID, step, d int32) uint64 {
	return uint64(node)<<32 | uint64(uint16(step))<<16 | uint64(uint16(d))
}

// unpackState is the inverse of packState.
func unpackState(packed uint64) (node graph.NodeID, step, d int32) {
	return graph.NodeID(packed >> 32), int32(uint16(packed >> 16)), int32(uint16(packed))
}

// flatOK reports whether the flat kernel can serve a query over g: the state
// space fits the dense layout and g has a CSR, which it builds here if g was
// never indexed. A graph with labels has none only when nodes × labels is
// beyond what graph.BuildCSR will lay out.
func (c *compiled) flatOK(g *graph.Graph) bool {
	return len(c.steps) < 1<<16 && int64(g.NumNodes())*int64(c.states) <= maxFlatStates && g.CSR() != nil
}

// runFlat is the flat kernel: the product BFS over the graph's CSR, with
// sc.visited a bitset in c's layout, clear outside the states already
// marked; c.flatOK must hold. It searches from the seeds in sc.frontier —
// dropping those already marked — until exhaustion or until q.target closes
// the last step. On return sc.frontier and sc.exits list every state it
// marked. It allocates nothing beyond their growth.
func (e *Engine) runFlat(c *compiled, sc *scratch, q query) bool {
	g := e.g
	csr := g.CSR()
	visited, member := sc.visited, sc.member
	frontier, exits := sc.frontier[:0], sc.exits[:0]
	for _, packed := range sc.frontier {
		if node, step, d := unpackState(packed); c.mark(visited, node, step, d) {
			frontier = append(frontier, packed)
		}
	}
	// queue lists a newly marked state in the frontier, or in exits when
	// its node is foreign.
	queue := func(next graph.NodeID, packed uint64) {
		if q.foreign != nil && q.foreign(next) {
			exits = append(exits, packed)
		} else {
			frontier = append(frontier, packed)
		}
	}
	last := int32(len(c.steps) - 1)
	// The state being expanded, and what one more edge of its step allows.
	var (
		st                *compiledStep
		step, dk          int32
		mayClose, mayCont bool
	)
	// expand handles one traversed neighbor and reports whether it is the
	// target. The closure does not escape, so it stays off the heap, and it
	// is made once per search: one made per state would copy its captures
	// each time, a few percent of a point query.
	expand := func(next graph.NodeID) bool {
		if mayClose && st.predsHold(g, next) {
			if step < last {
				if c.mark(visited, next, step+1, 0) {
					queue(next, packState(next, step+1, 0))
				}
			} else {
				if q.collect {
					member[next>>6] |= 1 << (next & 63)
				}
				if next == q.target {
					return true
				}
			}
		}
		if mayCont && c.mark(visited, next, step, dk) {
			queue(next, packState(next, step, dk))
		}
		return false
	}
	found := false
	for head := 0; head < len(frontier) && !found; head++ {
		node, s, d := unpackState(frontier[head])
		step, st = s, &c.steps[s]
		if !st.labelOK {
			continue
		}
		d1 := int(d) + 1
		mayClose, mayCont, dk = st.MayClose(d1), st.MayContinue(d1), int32(st.DKey(d1))
		if st.Dir != pathexpr.In {
			for _, nb := range csr.OutNeighbors(node, st.label) {
				if found = expand(graph.NodeID(nb)); found {
					break
				}
			}
		}
		if !found && st.Dir != pathexpr.Out {
			for _, nb := range csr.InNeighbors(node, st.label) {
				if found = expand(graph.NodeID(nb)); found {
					break
				}
			}
		}
	}
	sc.frontier, sc.exits = frontier, exits
	return found
}

// flatWords returns the visited-bitset size in words for V nodes.
func (c *compiled) flatWords(v int) int {
	return (v*int(c.states) + 63) / 64
}
