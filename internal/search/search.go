// Package search implements the online evaluation baseline from §1 of the
// paper: a breadth-first traversal of the social graph
// constrained by the access condition's path, i.e. a product search over
// G × the step machine of the path expression. It needs no precomputation
// and takes O(|V| + |E|) per query, which is the cost the index pipeline of
// §3 is designed to beat on large graphs.
//
// The product search is written twice, over the same inputs — seed states,
// each at any step and depth; an optional target for early exit; optional
// member collection; an optional foreign test that retires a state without
// expanding it (see query):
//
//   - runFlat (flat.go), the allocation-free kernel over the graph's CSR
//     with a dense bitset visited set, serves every entry point whenever the
//     plan and graph fit its layout (flatOK);
//   - runMap (below), a map-keyed kernel over the edge lists that records
//     parents, serves every entry point otherwise, and always serves
//     Witness, which walks the parents back.
//
// Both kernels read the step rules (close, continue, the canonical depth key
// and the number of canonical depths) from pathexpr.Step, their one
// definition.
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

// maxDepthLimit bounds per-step depths so that search states pack into a
// 64-bit word (see packState). Real policies use single-digit depths.
const maxDepthLimit = 1 << 15

// compiledStep is a path step with its label resolved against a graph.
type compiledStep struct {
	pathexpr.Step
	label   graph.Label
	labelOK bool // false when the label does not occur in the graph at all
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
	steps := make([]compiledStep, len(p.Steps))
	for i, st := range p.Steps {
		if st.MaxDepth >= maxDepthLimit || st.MinDepth >= maxDepthLimit {
			return nil, fmt.Errorf("search: step %d depth exceeds limit %d", i+1, maxDepthLimit)
		}
		label, ok := g.LookupLabel(st.Label)
		steps[i] = compiledStep{Step: st, label: label, labelOK: ok}
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

// Engine evaluates reachability constraints by online graph traversal, on
// the kernel the package comment assigns to each query: the flat kernel,
// allocation-free after warmup, whenever the plan and graph fit it, and the
// map kernel otherwise and for Witness. An Engine is safe for concurrent
// queries over a quiescent graph.
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

// ApplyDelta implements core.IncrementalEvaluator. Online engines hold no
// precomputed state — every query traverses the live graph — so once the
// underlying clone has been advanced there is nothing left to do.
func (e *Engine) ApplyDelta(g *graph.Graph, _ []graph.Delta) bool { return e.g == g }

// Reachable reports whether requester is reachable from owner through a path
// matching p (Definition 3: the requester must have a direct or indirect
// relationship with the owner that matches the specified path). It searches
// from whichever endpoint admits fewer first-step traversals (see
// RouteCostsPlan): forward from the owner, or the reversed pattern from the
// requester. On the flat kernel it performs zero heap allocations once the
// plan cache and the pooled scratch are warm.
func (e *Engine) Reachable(owner, requester graph.NodeID, p *pathexpr.Path) (bool, error) {
	if !e.g.ValidNode(owner) || !e.g.ValidNode(requester) {
		return false, fmt.Errorf("search: invalid node (owner=%d requester=%d)", owner, requester)
	}
	pl, err := e.Plan(p)
	if err != nil {
		return false, err
	}
	if fwd, rev := e.RouteCostsPlan(owner, requester, pl); rev < fwd {
		return e.reverse(owner, requester, pl), nil
	}
	return e.reach(owner, requester, &pl.compiled), nil
}

// reach searches for a match of c from one valid node to another.
func (e *Engine) reach(from, to graph.NodeID, c *compiled) bool {
	if c.anyMissing {
		// A label absent from the graph can never be matched.
		return false
	}
	sc := scratchPool.Get().(*scratch)
	sc.frontier = append(sc.frontier[:0], packState(from, 0, 0))
	found := e.run(c, sc, query{target: to})
	scratchPool.Put(sc)
	return found
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
// that step's Depths.
func (e *Engine) Expand(pl *Plan, seeds []State, target graph.NodeID, foreign func(graph.NodeID) bool) Expansion {
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
	return x
}

// Witness is Reachable returning also a matching path (sequence of hops
// from owner to requester) when one exists. It runs the map kernel, whose
// parents it walks back from the requester.
func (e *Engine) Witness(owner, requester graph.NodeID, p *pathexpr.Path) ([]Hop, bool, error) {
	if !e.g.ValidNode(owner) || !e.g.ValidNode(requester) {
		return nil, false, fmt.Errorf("search: invalid node (owner=%d requester=%d)", owner, requester)
	}
	pl, err := e.Plan(p)
	if err != nil {
		return nil, false, err
	}
	if pl.anyMissing {
		// A label absent from the graph can never be matched.
		return nil, false, nil
	}
	sc := &scratch{frontier: []uint64{packState(owner, 0, 0)}}
	found, parents, last := e.runMap(&pl.compiled, sc, query{target: requester})
	if !found {
		return nil, false, nil
	}
	hops := []Hop{last.hop}
	for v := parents[last.prev]; v.has; v = parents[v.prev] {
		hops = append(hops, v.hop)
	}
	slices.Reverse(hops)
	return hops, true, nil
}

// visit is how the map kernel first reached a state: from state prev over
// hop. A seed has none.
type visit struct {
	prev uint64
	hop  Hop
	has  bool
}

// runMap is the map kernel: runFlat's search, reading adjacency from the
// graph's edge lists and deduplicating states in a map, so that it needs
// neither a CSR nor a dense layout. It takes sc as runFlat does, but never
// touches sc.visited. It returns, besides whether q.target was reached, how
// every marked state was first reached, and how the target was.
func (e *Engine) runMap(c *compiled, sc *scratch, q query) (found bool, parents map[uint64]visit, last visit) {
	g := e.g
	parents = make(map[uint64]visit, len(sc.frontier))
	frontier, exits := sc.frontier[:0], sc.exits[:0]
	for _, packed := range sc.frontier {
		if _, dup := parents[packed]; !dup {
			parents[packed] = visit{}
			frontier = append(frontier, packed)
		}
	}
	// push marks a generated state and queues it, or retires it into exits
	// when its node is foreign.
	push := func(next graph.NodeID, step, d int32, v visit) {
		packed := packState(next, step, d)
		if _, dup := parents[packed]; dup {
			return
		}
		parents[packed] = v
		if q.foreign != nil && q.foreign(next) {
			exits = append(exits, packed)
		} else {
			frontier = append(frontier, packed)
		}
	}
	lastStep := int32(len(c.steps) - 1)
	for head := 0; head < len(frontier) && !found; head++ {
		cur := frontier[head]
		node, step, d := unpackState(cur)
		st := &c.steps[step]
		if !st.labelOK {
			continue
		}
		d1 := int(d) + 1
		mayClose, mayCont, dk := st.MayClose(d1), st.MayContinue(d1), int32(st.DKey(d1))
		// expand consumes one edge of the step; it reports whether to go on.
		expand := func(edge graph.Edge, next graph.NodeID, forward bool) bool {
			if edge.Label != st.label {
				return true
			}
			v := visit{prev: cur, hop: Hop{Edge: edge, Forward: forward, Step: int(step)}, has: true}
			if mayClose && st.predsHold(g, next) {
				if step < lastStep {
					push(next, step+1, 0, v)
				} else {
					if q.collect {
						sc.member[next>>6] |= 1 << (next & 63)
					}
					if next == q.target {
						found, last = true, v
						return false
					}
				}
			}
			if mayCont {
				push(next, step, dk, v)
			}
			return true
		}
		if st.Dir != pathexpr.In {
			g.OutEdges(node, func(edge graph.Edge) bool { return expand(edge, edge.To, true) })
		}
		if !found && st.Dir != pathexpr.Out {
			g.InEdges(node, func(edge graph.Edge) bool { return expand(edge, edge.From, false) })
		}
	}
	sc.frontier, sc.exits = frontier, exits
	return found, parents, last
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
