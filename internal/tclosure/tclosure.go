// Package tclosure implements the second baseline named in §1 of the paper:
// precomputing reachability so queries answer in O(1)-ish time, at the cost
// the paper quotes — O(|V|·|E|) construction and O(|V|²) storage — which is
// what makes it "unacceptable for large graphs".
//
// A plain transitive closure cannot answer ordered label-constraint
// queries, so the engine stores one bitset adjacency matrix per
// (relationship type, direction) and one per-label closure, and evaluates a
// query by frontier composition: starting from the owner's singleton bitset,
// each step multiplies the frontier by the step's adjacency matrix d times
// for every admissible depth d (the per-label closure short-circuits
// unbounded tails). Attribute predicates intersect the frontier with a
// precomputed per-query predicate bitset.
package tclosure

import (
	"fmt"
	"math/bits"
	"sync"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// bitset is a fixed-width row of bits over the node ID space.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) unset(i int)    { b[i>>6] &^= 1 << (i & 63) }
func (b bitset) get(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) orWith(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}
func (b bitset) andWith(o bitset) {
	for i := range b {
		b[i] &= o[i]
	}
}
func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}
func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// matrix is a row-per-node bitset adjacency/closure matrix.
type matrix struct {
	n    int
	rows []bitset
}

func newMatrix(n int) *matrix {
	m := &matrix{n: n, rows: make([]bitset, n)}
	for i := range m.rows {
		m.rows[i] = newBitset(n)
	}
	return m
}

// apply returns frontier × m: the set of nodes reachable from the frontier
// by one application of m.
func (m *matrix) apply(frontier bitset) bitset {
	out := newBitset(m.n)
	for w := 0; w < len(frontier); w++ {
		word := frontier[w]
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			out.orWith(m.rows[i])
		}
	}
	return out
}

// close computes the reflexive-free transitive closure of m in place
// (repeated squaring is not needed; a per-row BFS over the boolean rows is
// O(V·E/64) and simpler).
func (m *matrix) close() *matrix {
	c := newMatrix(m.n)
	for i := 0; i < m.n; i++ {
		// BFS over bitset rows starting from row i.
		frontier := m.rows[i].clone()
		reach := frontier.clone()
		for !frontier.empty() {
			next := m.apply(frontier)
			// next \ reach
			for w := range next {
				next[w] &^= reach[w]
			}
			reach.orWith(next)
			frontier = next
		}
		c.rows[i] = reach
	}
	return c
}

type labelDir struct {
	label graph.Label
	fwd   bool
}

// Engine answers reachability constraints from precomputed per-label
// adjacency and closure matrices. Queries are safe for concurrent use (the
// lazily built closure caches are internally locked); the underlying graph
// must not be mutated while queries run.
type Engine struct {
	g *graph.Graph
	n int
	// adj holds one adjacency matrix per (label, direction). It is
	// immutable after New.
	adj map[labelDir]*matrix
	// mu guards the lazily built closure caches below, so that concurrent
	// queries may share one engine. Closure construction is idempotent;
	// the lock is held across a build only to avoid duplicated work.
	mu sync.RWMutex
	// closure holds the transitive closure of each adjacency matrix,
	// built lazily on first unbounded use and cached.
	closure map[labelDir]*matrix
	// bothClosure caches closures of the '*' (union) matrices per label.
	bothClosure map[graph.Label]*matrix
}

// New precomputes the per-label adjacency matrices for g. Closures for
// unbounded steps are built lazily per (label, direction).
func New(g *graph.Graph) *Engine {
	n := g.NumNodes()
	e := &Engine{g: g, n: n, adj: make(map[labelDir]*matrix), closure: make(map[labelDir]*matrix)}
	g.Edges(func(ed graph.Edge) bool {
		fk := labelDir{ed.Label, true}
		if e.adj[fk] == nil {
			e.adj[fk] = newMatrix(n)
		}
		e.adj[fk].rows[ed.From].set(int(ed.To))
		bk := labelDir{ed.Label, false}
		if e.adj[bk] == nil {
			e.adj[bk] = newMatrix(n)
		}
		e.adj[bk].rows[ed.To].set(int(ed.From))
		return true
	})
	return e
}

// Bytes estimates the resident size of the precomputed matrices (the E6
// space metric).
func (e *Engine) Bytes() int {
	per := ((e.n + 63) / 64) * 8 * e.n
	e.mu.RLock()
	defer e.mu.RUnlock()
	return (len(e.adj) + len(e.closure)) * per
}

// ApplyDelta implements core.IncrementalEvaluator: edge additions and
// removals flip single bits in the per-(label, direction) adjacency
// matrices and invalidate only the affected label's cached closures —
// replacing the wholesale engine rebuild a mutation used to force. Node
// additions are free (a node with no incident edges is unreachable; see the
// Reachable guard). The batch is declined — forcing a full rebuild —
// when an edge touches a node beyond the matrices' width, since growing
// every row of every matrix would cost as much as rebuilding.
func (e *Engine) ApplyDelta(g *graph.Graph, deltas []graph.Delta) bool {
	if e.g != g {
		return false
	}
	// Pre-scan so a decline never leaves the matrices half-advanced.
	for _, d := range deltas {
		switch d.Op {
		case graph.OpAddNode:
		case graph.OpAddEdge, graph.OpRemoveEdge:
			if int(d.From) >= e.n || int(d.To) >= e.n {
				return false
			}
		default:
			return false
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, d := range deltas {
		if d.Op != graph.OpAddEdge && d.Op != graph.OpRemoveEdge {
			continue
		}
		l, ok := g.LookupLabel(d.Label)
		if !ok {
			return false // clone and log diverged; rebuild
		}
		fk, bk := labelDir{l, true}, labelDir{l, false}
		if d.Op == graph.OpAddEdge {
			if e.adj[fk] == nil {
				e.adj[fk] = newMatrix(e.n)
			}
			if e.adj[bk] == nil {
				e.adj[bk] = newMatrix(e.n)
			}
			e.adj[fk].rows[d.From].set(int(d.To))
			e.adj[bk].rows[d.To].set(int(d.From))
		} else {
			if e.adj[fk] != nil {
				e.adj[fk].rows[d.From].unset(int(d.To))
			}
			if e.adj[bk] != nil {
				e.adj[bk].rows[d.To].unset(int(d.From))
			}
		}
		// Per-label invalidation: only this label's closures are rebuilt
		// (lazily, on next unbounded use); every other label's cache
		// survives the mutation.
		delete(e.closure, fk)
		delete(e.closure, bk)
		delete(e.bothClosure, l)
	}
	return true
}

// MaterializeClosures forces construction of every per-label closure, so
// that build cost can be measured up front (E6).
func (e *Engine) MaterializeClosures() {
	for k := range e.adj {
		e.closureFor(k)
	}
}

func (e *Engine) closureFor(k labelDir) *matrix {
	e.mu.RLock()
	c, ok := e.closure[k]
	e.mu.RUnlock()
	if ok {
		return c
	}
	a, ok := e.adj[k]
	if !ok {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.closure[k]; ok {
		return c
	}
	c = a.close()
	e.closure[k] = c
	return c
}

// stepMatrix returns the effective adjacency matrix of a step: for '*'
// direction the union of both orientations. nil when the label is absent.
func (e *Engine) stepMatrix(label graph.Label, dir pathexpr.Direction) *matrix {
	switch dir {
	case pathexpr.Out:
		return e.adj[labelDir{label, true}]
	case pathexpr.In:
		return e.adj[labelDir{label, false}]
	default:
		f := e.adj[labelDir{label, true}]
		b := e.adj[labelDir{label, false}]
		if f == nil {
			return b
		}
		if b == nil {
			return f
		}
		u := newMatrix(e.n)
		for i := 0; i < e.n; i++ {
			u.rows[i] = f.rows[i].clone()
			u.rows[i].orWith(b.rows[i])
		}
		return u
	}
}

// stepClosure returns the closure used by an unbounded step. For '*' steps
// the closure of the union matrix is required (the closure of a union is
// not the union of the closures), cached per label in bothClosure.
func (e *Engine) stepClosure(label graph.Label, dir pathexpr.Direction) *matrix {
	switch dir {
	case pathexpr.Out:
		return e.closureFor(labelDir{label, true})
	case pathexpr.In:
		return e.closureFor(labelDir{label, false})
	default:
		// Closure of the union is NOT the union of closures; compute from
		// the union matrix and cache in the both map.
		e.mu.RLock()
		c, ok := e.bothClosure[label]
		e.mu.RUnlock()
		if ok {
			return c
		}
		m := e.stepMatrix(label, pathexpr.Both)
		if m == nil {
			return nil
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if c, ok := e.bothClosure[label]; ok {
			return c
		}
		if e.bothClosure == nil {
			e.bothClosure = make(map[graph.Label]*matrix)
		}
		c = m.close()
		e.bothClosure[label] = c
		return c
	}
}

// Reachable reports whether requester is reachable from owner through a
// path matching p.
func (e *Engine) Reachable(owner, requester graph.NodeID, p *pathexpr.Path) (bool, error) {
	if !e.g.ValidNode(owner) || !e.g.ValidNode(requester) {
		return false, fmt.Errorf("tclosure: invalid node (owner=%d requester=%d)", owner, requester)
	}
	if err := p.Validate(); err != nil {
		return false, err
	}
	if int(owner) >= e.n || int(requester) >= e.n {
		// Nodes added after the matrices were sized are edge-free (an
		// incident edge would have forced a rebuild, see ApplyDelta), and
		// every path pattern consumes at least one edge.
		return false, nil
	}
	frontier := newBitset(e.n)
	frontier.set(int(owner))
	for _, s := range p.Steps {
		label, ok := e.g.LookupLabel(s.Label)
		if !ok {
			return false, nil
		}
		m := e.stepMatrix(label, s.Dir)
		if m == nil {
			return false, nil
		}
		// Walk to the minimum depth first.
		cur := frontier
		for d := 0; d < s.MinDepth; d++ {
			cur = m.apply(cur)
			if cur.empty() {
				return false, nil
			}
		}
		// Accumulate all admissible depths.
		acc := cur.clone()
		if s.Unbounded {
			c := e.stepClosure(label, s.Dir)
			acc.orWith(c.apply(cur))
		} else {
			for d := s.MinDepth; d < s.MaxDepth; d++ {
				cur = m.apply(cur)
				if cur.empty() {
					break
				}
				acc.orWith(cur)
			}
		}
		// Apply the step's attribute predicates to the step-end nodes.
		if len(s.Preds) > 0 {
			acc.andWith(e.predBitset(s.Preds))
		}
		if acc.empty() {
			return false, nil
		}
		frontier = acc
	}
	return frontier.get(int(requester)), nil
}

// predBitset computes the set of nodes satisfying all predicates.
func (e *Engine) predBitset(preds []pathexpr.Pred) bitset {
	b := newBitset(e.n)
	for i := 0; i < e.n; i++ {
		ok := true
		attrs := e.g.Node(graph.NodeID(i)).Attrs
		for _, pr := range preds {
			if !pr.Eval(attrs) {
				ok = false
				break
			}
		}
		if ok {
			b.set(i)
		}
	}
	return b
}
