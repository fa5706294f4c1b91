// Package search implements the online evaluation baseline from §1 of the
// paper: a breadth-first traversal of the social graph
// constrained by the access condition's path, i.e. a product search over
// G × the step machine of the path expression. It needs no precomputation
// and takes O(|V| + |E|) per query, which is the cost the index pipeline of
// §3 is designed to beat on large graphs.
//
// It also serves as the reference oracle: all index-based engines are tested
// to agree with it.
package search

import (
	"fmt"
	"sync"
	"sync/atomic"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// maxDepthLimit bounds per-step depths so that search states pack into a
// 64-bit key. Real policies use single-digit depths.
const maxDepthLimit = 1 << 15

// compiledStep is a path step with its label resolved against a graph.
type compiledStep struct {
	label     graph.Label
	labelOK   bool // false when the label does not occur in the graph at all
	dir       pathexpr.Direction
	min, max  int
	unbounded bool
	preds     []pathexpr.Pred
}

func (s *compiledStep) predsHold(g *graph.Graph, n graph.NodeID) bool {
	for _, p := range s.preds {
		if !p.Eval(g.Node(n).Attrs) {
			return false
		}
	}
	return true
}

// dKey canonicalizes the "edges consumed within this step" counter: for an
// unbounded step, any depth at or above min behaves identically (the step
// may close, and may always continue), so depths collapse to min. This keeps
// the state space finite.
func (s *compiledStep) dKey(d int) int {
	if s.unbounded && d > s.min {
		return s.min
	}
	return d
}

// mayContinue reports whether, after consuming d edges in this step, another
// same-label edge may be consumed.
func (s *compiledStep) mayContinue(d int) bool {
	return s.unbounded || d < s.max
}

// mayClose reports whether the step is complete after d edges.
func (s *compiledStep) mayClose(d int) bool { return d >= s.min }

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
		steps[i] = compiledStep{
			label:     label,
			labelOK:   ok,
			dir:       st.Dir,
			min:       st.MinDepth,
			max:       st.MaxDepth,
			unbounded: st.Unbounded,
			preds:     st.Preds,
		}
	}
	return steps, nil
}

// state packs (node, stepIndex, depthKey) into one comparable key.
type state struct {
	node graph.NodeID
	step uint16
	d    uint16
}

// Hop is one traversed edge of a witness path, with the orientation used
// (Forward means the edge was traversed from its From to its To endpoint)
// and the pattern step it satisfied.
type Hop struct {
	Edge    graph.Edge
	Forward bool
	Step    int
}

// Engine evaluates reachability constraints by online graph traversal.
// Decision queries (Reachable, AudienceSet) run on the flat bitset search of
// flat.go — allocation-free after warmup — while Witness keeps the map-based
// traversal it needs for path reconstruction. An Engine is safe for
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

// ApplyDelta implements core.IncrementalEvaluator. Online engines hold no
// precomputed state — every query traverses the live graph — so once the
// underlying clone has been advanced there is nothing left to do.
func (e *Engine) ApplyDelta(g *graph.Graph, _ []graph.Delta) bool { return e.g == g }

// Reachable reports whether requester is reachable from owner through a path
// matching p (Definition 3: the requester must have a direct or indirect
// relationship with the owner that matches the specified path). It runs the
// flat bitset search — zero heap allocations once the plan cache and the
// pooled scratch are warm — and falls back to the map-based witness search
// only for state spaces too large for the flat layout and graphs too large
// for a CSR.
func (e *Engine) Reachable(owner, requester graph.NodeID, p *pathexpr.Path) (bool, error) {
	if !e.g.ValidNode(owner) || !e.g.ValidNode(requester) {
		return false, fmt.Errorf("search: invalid node (owner=%d requester=%d)", owner, requester)
	}
	pl, err := e.Plan(p)
	if err != nil {
		return false, err
	}
	return e.ReachablePlan(owner, requester, pl), nil
}

// ReachablePlan is Reachable for a caller that already holds the
// expression's plan (see Plan); both endpoints must be valid nodes.
func (e *Engine) ReachablePlan(owner, requester graph.NodeID, pl *Plan) bool {
	return e.reach(owner, requester, &pl.compiled)
}

// reach searches for a match of c from one valid node to another.
func (e *Engine) reach(from, to graph.NodeID, c *compiled) bool {
	if c.anyMissing {
		// A label absent from the graph can never be matched.
		return false
	}
	if !c.flatOK(e.g) {
		_, ok := e.witness(from, to, c.steps)
		return ok
	}
	sc := scratchPool.Get().(*scratch)
	found := e.reachFlat(sc, c, from, to)
	scratchPool.Put(sc)
	return found
}

// Witness is Reachable returning also a matching path (sequence of hops
// from owner to requester) when one exists.
func (e *Engine) Witness(owner, requester graph.NodeID, p *pathexpr.Path) ([]Hop, bool, error) {
	if !e.g.ValidNode(owner) || !e.g.ValidNode(requester) {
		return nil, false, fmt.Errorf("search: invalid node (owner=%d requester=%d)", owner, requester)
	}
	steps, err := compile(e.g, p)
	if err != nil {
		return nil, false, err
	}
	for i := range steps {
		if !steps[i].labelOK {
			// A label absent from the graph can never be matched.
			return nil, false, nil
		}
	}
	hops, ok := e.witness(owner, requester, steps)
	return hops, ok, nil
}

// witness is the map-based product search behind Witness, over steps whose
// labels all occur in the graph.
func (e *Engine) witness(owner, requester graph.NodeID, steps []compiledStep) ([]Hop, bool) {
	start := state{node: owner, step: 0, d: 0}
	type visit struct {
		prev state
		hop  Hop
		has  bool
	}
	seen := map[state]visit{start: {}}
	frontier := []state{start}

	reconstruct := func(final state) []Hop {
		var rev []Hop
		cur := final
		for {
			v := seen[cur]
			if !v.has {
				break
			}
			rev = append(rev, v.hop)
			cur = v.prev
		}
		// Reverse in place.
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return rev
	}

	// A zero-length pattern cannot exist (MinDepth >= 1), so owner==requester
	// is only granted if a genuine cycle back to the owner matches; the loop
	// below handles that naturally.

	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		st := &steps[cur.step]

		// expand consumes one edge of the current step from cur.node.
		expand := func(edge graph.Edge, next graph.NodeID, forward bool) bool {
			d := int(cur.d) + 1
			hop := Hop{Edge: edge, Forward: forward, Step: int(cur.step)}
			// Option 1: close the step here (preds checked at step end).
			if st.mayClose(d) && st.predsHold(e.g, next) {
				if int(cur.step) == len(steps)-1 {
					if next == requester {
						// Done: record the final pseudo-state for reconstruction.
						final := state{node: next, step: cur.step + 1, d: 0}
						if _, dup := seen[final]; !dup {
							seen[final] = visit{prev: cur, hop: hop, has: true}
						}
						return true
					}
				} else {
					ns := state{node: next, step: cur.step + 1, d: 0}
					if _, dup := seen[ns]; !dup {
						seen[ns] = visit{prev: cur, hop: hop, has: true}
						frontier = append(frontier, ns)
					}
				}
			}
			// Option 2: continue the step.
			if st.mayContinue(d) {
				ns := state{node: next, step: cur.step, d: uint16(st.dKey(d))}
				if _, dup := seen[ns]; !dup {
					seen[ns] = visit{prev: cur, hop: hop, has: true}
					frontier = append(frontier, ns)
				}
			}
			return false
		}

		found := false
		if st.dir == pathexpr.Out || st.dir == pathexpr.Both {
			e.g.OutEdges(cur.node, func(edge graph.Edge) bool {
				if edge.Label != st.label {
					return true
				}
				if expand(edge, edge.To, true) {
					found = true
					return false
				}
				return true
			})
		}
		if !found && (st.dir == pathexpr.In || st.dir == pathexpr.Both) {
			e.g.InEdges(cur.node, func(edge graph.Edge) bool {
				if edge.Label != st.label {
					return true
				}
				if expand(edge, edge.From, false) {
					found = true
					return false
				}
				return true
			})
		}
		if found {
			final := state{node: requester, step: uint16(len(steps)), d: 0}
			return reconstruct(final), true
		}
	}
	return nil, false
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
				if st.dir == pathexpr.In {
					return fmt.Errorf("hop %d: forward traversal on incoming-only step", hi)
				}
			} else {
				from, to = edge.To, edge.From
				if st.dir == pathexpr.Out {
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
		if d < st.min || (!st.unbounded && d > st.max) {
			return fmt.Errorf("step %d: depth %d outside [%d,%d]", si, d, st.min, st.max)
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
