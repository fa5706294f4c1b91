// Package search implements the online evaluation baseline from §1 of the
// paper: a breadth-first traversal of the social graph
// constrained by the access condition's path, i.e. a product search over
// G × the step machine of the path expression. It needs no precomputation
// and takes O(|V| + |E|) per query, which is the cost the index pipeline of
// §3 is designed to beat on large graphs.
//
// The product search is one kernel, runFlat (flat.go): allocation-free, over
// the graph's CSR with a dense bitset visited set. It takes seed states, each
// at any step and depth; an optional target for early exit; optional member
// collection; an optional foreign test that retires a state without
// expanding it (see query). It serves Expand, the audiences and Witness,
// which walks the states it marked back from the requester. Reachable
// searches from both endpoints at once on the same layout and stops where
// the two sides meet (meet.go). A plan the layout cannot hold on the graph
// it is asked about — over maxSteps steps, or over maxFlatStates product
// states — is an error, not a slower search.
//
// Every search reads the step rules (close, continue, the canonical depth
// key) from pathexpr.Step, their one definition.
//
// It also serves as the reference oracle: all index-based engines are tested
// to agree with it.
package search

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// maxDepthLimit bounds per-step depths, and maxSteps a pattern's steps, so
// that search states pack into a 64-bit word (see packState). Real policies
// use single-digit depths and a handful of steps.
const (
	maxDepthLimit = 1 << 15
	maxSteps      = 1<<16 - 1
)

// compiledStep is a path step with its label resolved against a graph.
type compiledStep struct {
	pathexpr.Step
	label   graph.Label
	labelOK bool // false when no edge of the graph can carry the label
}

func (s *compiledStep) predsHold(g *graph.Graph, n graph.NodeID) bool {
	for _, p := range s.Preds {
		if !p.Eval(g.Node(n).Attrs) {
			return false
		}
	}
	return true
}

func compile(g *graph.Graph, p *pathexpr.Path) ([]compiledStep, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Steps) > maxSteps {
		return nil, fmt.Errorf("search: %d steps exceed the limit of %d", len(p.Steps), maxSteps)
	}
	// A label the CSR has no cells for (see graph.CSR) is one no edge
	// carries: it matches nothing, as an unknown label does.
	width := g.CSR().NumLabels()
	steps := make([]compiledStep, len(p.Steps))
	for i, st := range p.Steps {
		if st.MaxDepth >= maxDepthLimit || st.MinDepth >= maxDepthLimit {
			return nil, fmt.Errorf("search: step %d depth exceeds limit %d", i+1, maxDepthLimit)
		}
		label, ok := g.LookupLabel(st.Label)
		steps[i] = compiledStep{Step: st, label: label, labelOK: ok && int(label) < width}
	}
	return steps, nil
}

// State is one product-search state: a node, the index of the path step
// being matched, and the canonical count of edges consumed within that step
// (pathexpr.Step.DKey).
type State struct {
	Node    graph.NodeID
	Step, D int
}

// Hop is one traversed edge of a witness path, with the orientation used
// (Forward means the edge was traversed from its From to its To endpoint)
// and the pattern step it satisfied.
type Hop struct {
	Edge    graph.Edge
	Forward bool
	Step    int
}

// Engine evaluates reachability constraints by online graph traversal (see
// the package comment), allocation-free after warmup. An Engine is safe for
// concurrent queries over a quiescent graph.
type Engine struct {
	g *graph.Graph
	// PlanCompiles, when set before the engine's first query, is incremented
	// for every plan the engine compiles. A network points all its engines
	// at one counter, so that it outlives the snapshots they belong to.
	PlanCompiles *atomic.Uint64
	// plans caches compiled plans by canonical expression text (see Plan).
	// Readers load the map and probe it; planMu serializes the writers that
	// replace it.
	plans  atomic.Pointer[map[string]*Plan]
	planMu sync.Mutex
}

// New returns an online-search evaluator over g.
func New(g *graph.Graph) *Engine { return &Engine{g: g} }

// Reachable reports whether requester is reachable from owner through a path
// matching p (Definition 3: the requester must have a direct or indirect
// relationship with the owner that matches the specified path). It searches
// from both ends and stops where they meet (meet.go), and performs zero heap
// allocations once the plan cache and the pooled scratch are warm. A plan
// whose product states do not fit the graph (see fits) is an error.
func (e *Engine) Reachable(owner, requester graph.NodeID, p *pathexpr.Path) (bool, error) {
	if !e.g.ValidNode(owner) || !e.g.ValidNode(requester) {
		return false, fmt.Errorf("search: invalid node (owner=%d requester=%d)", owner, requester)
	}
	pl, err := e.fittingPlan(p)
	if err != nil {
		return false, err
	}
	if pl.anyMissing {
		// A label absent from the graph can never be matched.
		return false, nil
	}
	for _, pr := range pl.revPreds {
		if !pr.Eval(e.g.Node(requester).Attrs) {
			return false, nil
		}
	}
	return e.meet(pl, owner, requester), nil
}

// Expansion is the outcome of Expand.
type Expansion struct {
	// Found reports that the target closed the last step; the search
	// stopped there.
	Found bool
	// Members are the nodes that closed the last step, in ascending order.
	Members []graph.NodeID
	// Exits are the generated states on foreign nodes, retired unexpanded.
	Exits []State
}

// Expand runs the product search of pl from seeds, each of which may start
// at any step and depth, and collects every node that closes the last step.
// It stops early once target (unless graph.InvalidNode) closes it. A state
// generated on a node foreign (when non-nil) reports true for is retired as
// an exit without being expanded; seeds are always expanded. A step whose
// label the graph lacks matches no edge, and its states retire unexpanded.
// Each seed must be a valid node at a step of pl with D canonical and below
// that step's Depths. A plan whose product states do not fit the graph (see
// fits) is an error.
func (e *Engine) Expand(pl *Plan, seeds []State, target graph.NodeID, foreign func(graph.NodeID) bool) (Expansion, error) {
	if err := pl.fits(e.g.NumNodes()); err != nil {
		return Expansion{}, err
	}
	sc := scratchPool.Get().(*scratch)
	sc.member = sized(sc.member, (e.g.NumNodes()+63)/64)
	sc.frontier = sc.frontier[:0]
	for _, s := range seeds {
		sc.frontier = append(sc.frontier, packState(s.Node, int32(s.Step), int32(s.D)))
	}
	x := Expansion{Found: e.run(&pl.compiled, sc, query{target: target, collect: true, foreign: foreign})}
	x.Members = takeBits(nil, sc.member)
	x.Exits = make([]State, len(sc.exits))
	for i, s := range sc.exits {
		node, step, d := unpackState(s)
		x.Exits[i] = State{Node: node, Step: int(step), D: int(d)}
	}
	scratchPool.Put(sc)
	return x, nil
}

// Witness is Reachable returning also a matching path (sequence of hops
// from owner to requester) when one exists. It runs the flat kernel from the
// owner with the requester as its target, then walks the states it marked
// back from the requester (see walkBack).
func (e *Engine) Witness(owner, requester graph.NodeID, p *pathexpr.Path) ([]Hop, bool, error) {
	if !e.g.ValidNode(owner) || !e.g.ValidNode(requester) {
		return nil, false, fmt.Errorf("search: invalid node (owner=%d requester=%d)", owner, requester)
	}
	pl, err := e.fittingPlan(p)
	if err != nil {
		return nil, false, err
	}
	if pl.anyMissing {
		// A label absent from the graph can never be matched.
		return nil, false, nil
	}
	c := &pl.compiled
	sc := scratchPool.Get().(*scratch)
	sc.visited = sized(sc.visited, c.flatWords(e.g.NumNodes()))
	sc.frontier = append(sc.frontier[:0], packState(owner, 0, 0))
	found := e.runFlat(c, sc, query{target: requester})
	var hops []Hop
	if found {
		hops = e.walkBack(c, sc.frontier, requester)
	}
	c.unmark(sc.visited, sc.frontier)
	scratchPool.Put(sc)
	return hops, found, nil
}

// walkBack returns the hops of a match of c from the seed of the search that
// marked frontier, in BFS order, to target, which closed c's last step in it.
// The search marked every state by one admitted traversal from a state it
// had marked before, and closed the target from a state of the last step.
// So from the target each hop goes back to some state of smaller frontier
// index from which one admitted traversal leads, until the seed at index 0;
// a step with none is a bug in the kernel.
func (e *Engine) walkBack(c *compiled, frontier []uint64, target graph.NodeID) []Hop {
	index := make(map[uint64]int, len(frontier))
	for i, packed := range frontier {
		index[packed] = i
	}
	var hops []Hop
	// (n, s, d) is the state the walk stands on; s = len(c.steps) stands
	// for the target, having closed the last step.
	n, s, d, at := target, int32(len(c.steps)), int32(0), len(frontier)
	for at > 0 {
		hop, i := e.prev(c, index, n, s, d, at)
		if i < 0 {
			panic(fmt.Sprintf("search: witness walk found no state leading to (%d, %d, %d)", n, s, d))
		}
		hops = append(hops, hop)
		n, s, d = unpackState(frontier[i])
		at = i
	}
	slices.Reverse(hops)
	return hops
}

// prev finds a state indexed before at from which one traversal its step
// admits reaches (n, s, d) — continuing step s, or closing step s-1 into
// depth 0 — and returns the traversal's hop and the state's index, or -1.
func (e *Engine) prev(c *compiled, index map[uint64]int, n graph.NodeID, s, d int32, at int) (Hop, int) {
	g, csr := e.g, e.g.CSR()
	for ps := max(s-1, 0); ps <= s && int(ps) < len(c.steps); ps++ {
		st := &c.steps[ps]
		for _, forward := range [...]bool{true, false} {
			// A forward traversal from p to n crosses p -l-> n; a backward
			// one crosses n -l-> p.
			nbrs := csr.InNeighbors(n, st.label)
			if !forward {
				nbrs = csr.OutNeighbors(n, st.label)
			}
			if forward && st.Dir == pathexpr.In || !forward && st.Dir == pathexpr.Out {
				continue
			}
			for _, nb := range nbrs {
				p := graph.NodeID(nb)
				for pd := range int32(st.Depths()) {
					i, ok := index[packState(p, ps, pd)]
					d1 := int(pd) + 1
					if !ok || i >= at || !(ps == s && st.MayContinue(d1) && int32(st.DKey(d1)) == d ||
						ps < s && d == 0 && st.MayClose(d1) && st.predsHold(g, n)) {
						continue
					}
					e := graph.Edge{From: p, To: n, Label: st.label}
					if !forward {
						e.From, e.To = n, p
					}
					e.ID = g.FindEdge(e.From, e.To, e.Label)
					e.Weight = g.Weight(e.ID)
					return Hop{Edge: e, Forward: forward, Step: int(ps)}, i
				}
			}
		}
	}
	return Hop{}, -1
}

// VerifyWitness checks that hops is a valid match of p from owner to
// requester in g: correct labels, orientations, step depth intervals,
// predicate satisfaction, and endpoint continuity. It is used by tests and
// by the post-processing soundness checks.
func VerifyWitness(g *graph.Graph, owner, requester graph.NodeID, p *pathexpr.Path, hops []Hop) error {
	steps, err := compile(g, p)
	if err != nil {
		return err
	}
	cur := owner
	hi := 0
	for si := range steps {
		st := &steps[si]
		d := 0
		for hi < len(hops) && hops[hi].Step == si {
			h := hops[hi]
			if !g.EdgeAlive(h.Edge.ID) {
				return fmt.Errorf("hop %d: edge %d not alive", hi, h.Edge.ID)
			}
			edge := g.Edge(h.Edge.ID)
			if edge.Label != st.label {
				return fmt.Errorf("hop %d: label %s, want %s", hi, g.LabelName(edge.Label), g.LabelName(st.label))
			}
			var from, to graph.NodeID
			if h.Forward {
				from, to = edge.From, edge.To
				if st.Dir == pathexpr.In {
					return fmt.Errorf("hop %d: forward traversal on incoming-only step", hi)
				}
			} else {
				from, to = edge.To, edge.From
				if st.Dir == pathexpr.Out {
					return fmt.Errorf("hop %d: backward traversal on outgoing-only step", hi)
				}
			}
			if from != cur {
				return fmt.Errorf("hop %d: starts at %d, want %d", hi, from, cur)
			}
			cur = to
			d++
			hi++
		}
		if d < st.MinDepth || (!st.Unbounded && d > st.MaxDepth) {
			return fmt.Errorf("step %d: depth %d outside [%d,%d]", si, d, st.MinDepth, st.MaxDepth)
		}
		if !st.predsHold(g, cur) {
			return fmt.Errorf("step %d: predicates fail at node %d", si, cur)
		}
	}
	if hi != len(hops) {
		return fmt.Errorf("%d trailing hops", len(hops)-hi)
	}
	if cur != requester {
		return fmt.Errorf("witness ends at %d, want requester %d", cur, requester)
	}
	return nil
}
