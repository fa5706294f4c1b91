package search

import (
	"sync"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// This file is the allocation-free fast path behind Reachable and
// AudienceSet. The product search space (node, step, depth-key) is mapped to
// a dense integer range — node*states + stepBase[step] + d — so the visited
// set is a flat bitset instead of a map, the frontier is a reusable slice of
// packed uint64 states, and both live in a sync.Pool scratch that queries
// borrow and hand back all-zero. Adjacency always comes from the graph's
// label-partitioned CSR (see graph.CSR), which the graph keeps fresh across
// mutations; an engine over a graph that was never indexed builds it on its
// first query. The few graphs that cannot have one are served by the
// map-based search over edge lists (see flatOK).

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
	// key is the expression's canonical text: the plan's identity in the
	// engine's plan cache and in audience-cache keys.
	key string
	// labelsLen is the graph's label count at compile time; a grown label
	// table invalidates the plan (a previously-absent label may now exist).
	labelsLen int
}

// maxFlatStates bounds node*states products (in bits) served by the flat
// path; beyond it the map-based search takes over. 2^31 bits = 256 MiB of
// visited bitset, far above any realistic policy.
const maxFlatStates = int64(1) << 31

// layOut assigns the dense state layout to compiled steps.
func layOut(steps []compiledStep) compiled {
	c := compiled{steps: steps, stepBase: make([]int32, len(steps))}
	for i := range steps {
		c.stepBase[i] = c.states
		dCap := steps[i].max
		if steps[i].unbounded {
			dCap = steps[i].min
		}
		c.states += int32(dCap) + 1
		if !steps[i].labelOK {
			c.anyMissing = true
		}
	}
	return c
}

// newPlan compiles p, whose canonical text is key, against g.
func newPlan(g *graph.Graph, key string, p *pathexpr.Path) (*Plan, error) {
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
		key:       key,
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
	pl, err := newPlan(e.g, key, p)
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

// scratch is the pooled working set of a flat search. A parked scratch is
// all-zero over the whole capacity of visited and member: a search un-marks
// exactly the bits it marked before it returns the scratch, so taking one
// costs nothing, however many nodes the graph has.
type scratch struct {
	visited  []uint64
	member   []uint64
	frontier []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// sized returns the all-zero bitset b (see scratch) with words entries.
func sized(b []uint64, words int) []uint64 {
	if cap(b) < words {
		return make([]uint64, words)
	}
	return b[:words]
}

// unmark clears the visited bit of every state in frontier. A search enqueues
// each state it marks, so after it frontier lists exactly the set bits.
func (c *compiled) unmark(visited, frontier []uint64) {
	S := uint64(c.states)
	for _, packed := range frontier {
		bit := (packed>>32)*S + uint64(c.stepBase[uint16(packed>>16)]) + uint64(uint16(packed))
		visited[bit>>6] &^= 1 << (bit & 63)
	}
}

// reachFlat answers one point query on sc, which it takes and leaves
// all-zero.
func (e *Engine) reachFlat(sc *scratch, c *compiled, from, to graph.NodeID) bool {
	sc.visited = sized(sc.visited, c.flatWords(e.g.NumNodes()))
	frontier := seedFlat(c, sc.visited, sc.frontier[:0], from)
	found, frontier := e.runFlat(c, sc.visited, nil, frontier, to, false)
	c.unmark(sc.visited, frontier)
	sc.frontier = frontier
	return found
}

// audienceFlat appends to dst, in ascending order, every node the pattern
// reaches from owner. Like reachFlat it takes and leaves sc all-zero.
func (e *Engine) audienceFlat(sc *scratch, c *compiled, dst []graph.NodeID, owner graph.NodeID) []graph.NodeID {
	v := e.g.NumNodes()
	sc.visited = sized(sc.visited, c.flatWords(v))
	sc.member = sized(sc.member, (v+63)/64)
	frontier := seedFlat(c, sc.visited, sc.frontier[:0], owner)
	_, frontier = e.runFlat(c, sc.visited, sc.member, frontier, graph.InvalidNode, true)
	c.unmark(sc.visited, frontier)
	sc.frontier = frontier
	n := len(dst)
	dst = appendBits(dst, sc.member)
	for _, id := range dst[n:] {
		sc.member[id>>6] &^= 1 << (id & 63)
	}
	return dst
}

// packState packs (node, step, d) into one frontier word.
func packState(node graph.NodeID, step, d int32) uint64 {
	return uint64(node)<<32 | uint64(uint16(step))<<16 | uint64(uint16(d))
}

// flatOK reports whether the flat path can serve a query over g: the state
// space fits the dense layout and g has a CSR, which it builds here if g was
// never indexed. A graph with labels has none only when nodes × labels is
// beyond what graph.BuildCSR will lay out.
func (c *compiled) flatOK(g *graph.Graph) bool {
	return len(c.steps) < 1<<16 && int64(g.NumNodes())*int64(c.states) <= maxFlatStates && g.CSR() != nil
}

// runFlat runs the product BFS from the already-marked states in frontier
// until exhaustion (or until target is reached when collect is false), over
// the graph's CSR; c.flatOK must hold. visited and member are caller-owned
// bitsets indexed by the compiled state layout (member by node ID);
// frontier's backing array is reused and the possibly-grown slice is
// returned. runFlat performs no allocations beyond frontier growth.
func (e *Engine) runFlat(c *compiled, visited, member []uint64, frontier []uint64,
	target graph.NodeID, collect bool) (bool, []uint64) {
	g := e.g
	csr := g.CSR()
	S := c.states
	last := int32(len(c.steps) - 1)
	for head := 0; head < len(frontier); head++ {
		packed := frontier[head]
		node := graph.NodeID(packed >> 32)
		step := int32(uint16(packed >> 16))
		d := int32(uint16(packed))
		st := &c.steps[step]
		d1 := int(d) + 1
		mayClose := st.mayClose(d1)
		mayCont := st.mayContinue(d1)
		dk := int32(st.dKey(d1))
		// expand handles one traversed neighbor; the closure does not
		// escape, so it stays off the heap.
		expand := func(next graph.NodeID) bool {
			if mayClose && st.predsHold(g, next) {
				if step == last {
					if collect {
						member[next>>6] |= 1 << (next & 63)
					} else if next == target {
						return true
					}
				} else {
					bit := uint64(next)*uint64(S) + uint64(c.stepBase[step+1])
					if visited[bit>>6]&(1<<(bit&63)) == 0 {
						visited[bit>>6] |= 1 << (bit & 63)
						frontier = append(frontier, packState(next, step+1, 0))
					}
				}
			}
			if mayCont {
				bit := uint64(next)*uint64(S) + uint64(c.stepBase[step]) + uint64(dk)
				if visited[bit>>6]&(1<<(bit&63)) == 0 {
					visited[bit>>6] |= 1 << (bit & 63)
					frontier = append(frontier, packState(next, step, dk))
				}
			}
			return false
		}
		if st.dir == pathexpr.Out || st.dir == pathexpr.Both {
			for _, nb := range csr.OutNeighbors(node, st.label) {
				if expand(graph.NodeID(nb)) {
					return true, frontier
				}
			}
		}
		if st.dir == pathexpr.In || st.dir == pathexpr.Both {
			for _, nb := range csr.InNeighbors(node, st.label) {
				if expand(graph.NodeID(nb)) {
					return true, frontier
				}
			}
		}
	}
	return false, frontier
}

// seedFlat marks and enqueues the BFS start state (owner, step 0, d 0).
func seedFlat(c *compiled, visited []uint64, frontier []uint64, owner graph.NodeID) []uint64 {
	bit := uint64(owner) * uint64(c.states)
	visited[bit>>6] |= 1 << (bit & 63)
	return append(frontier, packState(owner, 0, 0))
}

// flatWords returns the visited-bitset size in words for V nodes.
func (c *compiled) flatWords(v int) int {
	return (v*int(c.states) + 63) / 64
}
