// Package graph implements the social network graph of Definition 1 in the
// paper: a directed, edge-labeled graph G = (V, E, λ, δ) where λ carries
// per-node attribute tuples and δ assigns each edge a relationship type from
// a finite alphabet Σ.
//
// The representation favors read-heavy access-control workloads: nodes and
// edges are stored in dense slices indexed by NodeID/EdgeID, with per-node
// in/out adjacency lists. Edges may be removed (tombstoned); node IDs are
// never reused.
package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// NodeID identifies a social network member. IDs are dense, starting at 0.
type NodeID uint32

// EdgeID identifies a relationship edge. IDs are dense, starting at 0.
type EdgeID uint32

// InvalidNode is returned by lookups that fail.
const InvalidNode = NodeID(^uint32(0))

// InvalidEdge is returned by lookups that fail.
const InvalidEdge = EdgeID(^uint32(0))

// Node is a social network member: a name (unique handle) and an attribute
// tuple λ(v).
type Node struct {
	ID    NodeID
	Name  string
	Attrs Attrs
}

// Edge is a directed relationship (x, y) with type δ(e) and an optional
// weight (the paper's figures annotate some edges with trust weights such as
// "Babysitting;0.8"; the weight is carried but not interpreted by the model).
type Edge struct {
	ID     EdgeID
	From   NodeID
	To     NodeID
	Label  Label
	Weight float64
	// deleted marks a tombstoned edge; iteration skips it.
	deleted bool
}

// Graph is the social network graph. The zero value is not usable; call New.
type Graph struct {
	nodes  []Node
	edges  []Edge
	out    [][]EdgeID
	in     [][]EdgeID
	byName map[string]NodeID
	labels *labelTable
	live   int // number of non-deleted edges
	// version counts structural mutations (node/edge additions, edge
	// removals); precomputed evaluators record it to detect staleness. It
	// is atomic so that snapshot validity checks may read it without
	// holding the mutator's lock; all other fields still require external
	// synchronization between mutators and readers.
	version atomic.Uint64
	// deltas is the bounded mutation log backing ChangesSince: deltas[i]
	// is the mutation that advanced the version from deltaBase+i to
	// deltaBase+i+1. Clones advanced through the log skip the O(V+E)
	// re-clone a mutation would otherwise force on the next snapshot.
	deltas    []Delta
	deltaBase uint64
	// deltaLimit bounds the retained window (0 means
	// DefaultDeltaLogLimit; negative disables logging).
	deltaLimit int
	// csr caches the compressed-sparse-row adjacency view serving the read
	// hot path, which the mutators below patch (see csr.go). It is an atomic
	// so that lock-free readers of a quiescent graph may consult and
	// (race-benignly) build it.
	csr atomic.Pointer[CSR]
}

// New returns an empty social network graph.
func New() *Graph {
	return &Graph{
		byName: make(map[string]NodeID),
		labels: newLabelTable(),
	}
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of live (non-removed) edges.
func (g *Graph) NumEdges() int { return g.live }

// NumLabels returns |Σ|, the number of distinct relationship types seen.
func (g *Graph) NumLabels() int { return g.labels.len() }

// Version returns the structural mutation counter: it changes whenever a
// node is added or an edge is added or removed. Indexes built over the
// graph record it to detect staleness. Version is safe to call concurrently
// with mutations (it is the one lock-free read the graph supports).
func (g *Graph) Version() uint64 { return g.version.Load() }

// AddNode adds a member with the given unique name and attributes and
// returns its ID. Adding a duplicate name returns the existing node's ID and
// an error.
func (g *Graph) AddNode(name string, attrs Attrs) (NodeID, error) {
	if id, ok := g.byName[name]; ok {
		return id, fmt.Errorf("graph: node %q already exists", name)
	}
	csr := g.FreshCSR()
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Attrs: attrs})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.byName[name] = id
	g.version.Add(1)
	if csr != nil {
		csr.addNode()
		g.restamp(csr)
	}
	g.record(Delta{Op: OpAddNode, Name: name, Attrs: attrs})
	return id, nil
}

// MustAddNode is AddNode for fixtures and tests; it panics on duplicates.
func (g *Graph) MustAddNode(name string, attrs Attrs) NodeID {
	id, err := g.AddNode(name, attrs)
	if err != nil {
		panic(err)
	}
	return id
}

// NodeByName resolves a member handle to its ID.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// Node returns the node record for id. It panics if id is out of range.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// SetAttr sets (or overwrites) one attribute of a node.
func (g *Graph) SetAttr(id NodeID, key string, v Value) {
	n := &g.nodes[id]
	if n.Attrs == nil {
		n.Attrs = make(Attrs)
	}
	n.Attrs[key] = v
}

// Attr returns one attribute of a node.
func (g *Graph) Attr(id NodeID, key string) (Value, bool) {
	return g.nodes[id].Attrs.Get(key)
}

// ValidNode reports whether id names an existing node.
func (g *Graph) ValidNode(id NodeID) bool { return int(id) < len(g.nodes) }

// Label interns a relationship-type name, creating it if needed.
func (g *Graph) Label(name string) Label { return g.labels.intern(name) }

// LookupLabel resolves a relationship-type name without creating it.
func (g *Graph) LookupLabel(name string) (Label, bool) { return g.labels.lookup(name) }

// LabelName returns the name of an interned label.
func (g *Graph) LabelName(l Label) string { return g.labels.name(l) }

// Labels returns all relationship-type names in interning order.
func (g *Graph) Labels() []string {
	return append([]string(nil), g.labels.names...)
}

// AddEdge adds a directed relationship from -> to with the given type name
// and returns its edge ID. Self-loops are rejected (a member cannot relate to
// themself in the model); parallel edges with different labels are allowed,
// and a duplicate (from, to, label) triple is rejected.
func (g *Graph) AddEdge(from, to NodeID, label string) (EdgeID, error) {
	return g.AddWeightedEdge(from, to, label, 0)
}

// AddWeightedEdge is AddEdge carrying an uninterpreted weight annotation.
func (g *Graph) AddWeightedEdge(from, to NodeID, label string, weight float64) (EdgeID, error) {
	if !g.ValidNode(from) || !g.ValidNode(to) {
		return InvalidEdge, fmt.Errorf("graph: edge endpoints out of range (%d, %d)", from, to)
	}
	if from == to {
		return InvalidEdge, fmt.Errorf("graph: self-loop on node %d rejected", from)
	}
	l := g.labels.intern(label)
	if g.FindEdge(from, to, l) != InvalidEdge {
		return InvalidEdge, fmt.Errorf("graph: duplicate edge %s -%s-> %s",
			g.nodes[from].Name, label, g.nodes[to].Name)
	}
	// A label this call interned changes the cell layout: FreshCSR is then
	// nil and the CSR stays behind.
	csr := g.FreshCSR()
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Label: l, Weight: weight})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.live++
	g.version.Add(1)
	if csr != nil {
		csr.addEdge(from, to, l)
		g.restamp(csr)
	}
	g.record(Delta{Op: OpAddEdge, From: from, To: to, Label: label, Weight: weight})
	return id, nil
}

// MustAddEdge is AddEdge for fixtures and tests; it panics on error.
func (g *Graph) MustAddEdge(from, to NodeID, label string) EdgeID {
	id, err := g.AddEdge(from, to, label)
	if err != nil {
		panic(err)
	}
	return id
}

// RemoveEdge tombstones an edge. Removing an already-removed or invalid edge
// is an error. Node IDs and surviving edge IDs are stable across removals.
func (g *Graph) RemoveEdge(id EdgeID) error {
	if int(id) >= len(g.edges) || g.edges[id].deleted {
		return fmt.Errorf("graph: no live edge %d", id)
	}
	csr := g.FreshCSR()
	e := g.edges[id]
	g.edges[id].deleted = true
	g.live--
	g.version.Add(1)
	if csr != nil {
		csr.removeEdge(e.From, e.To, e.Label)
		g.restamp(csr)
	}
	g.record(Delta{Op: OpRemoveEdge, From: e.From, To: e.To, Label: g.labels.name(e.Label)})
	return nil
}

// EdgeAlive reports whether id names a live edge.
func (g *Graph) EdgeAlive(id EdgeID) bool {
	return int(id) < len(g.edges) && !g.edges[id].deleted
}

// Edge returns the edge record for id (which may be tombstoned; check
// EdgeAlive). It panics if id is out of range.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// FindEdge returns the live edge (from, to, label) or InvalidEdge.
func (g *Graph) FindEdge(from, to NodeID, label Label) EdgeID {
	if !g.ValidNode(from) {
		return InvalidEdge
	}
	for _, eid := range g.out[from] {
		e := &g.edges[eid]
		if !e.deleted && e.To == to && e.Label == label {
			return eid
		}
	}
	return InvalidEdge
}

// HasEdge reports whether a live (from, to, label-name) edge exists.
func (g *Graph) HasEdge(from, to NodeID, label string) bool {
	l, ok := g.labels.lookup(label)
	if !ok {
		return false
	}
	return g.FindEdge(from, to, l) != InvalidEdge
}

// OutEdges calls fn for every live outgoing edge of n, in insertion order.
// fn returning false stops the iteration.
func (g *Graph) OutEdges(n NodeID, fn func(Edge) bool) {
	for _, eid := range g.out[n] {
		e := g.edges[eid]
		if e.deleted {
			continue
		}
		if !fn(e) {
			return
		}
	}
}

// Neighbors calls fn once per live outgoing edge of n with the target
// node, in insertion order (a target reachable over several labels is
// visited once per label). fn returning false stops the iteration. It is
// the adjacency view workload.Source asks of a graph-shaped value.
func (g *Graph) Neighbors(n NodeID, fn func(NodeID) bool) {
	g.OutEdges(n, func(e Edge) bool { return fn(e.To) })
}

// InEdges calls fn for every live incoming edge of n, in insertion order.
func (g *Graph) InEdges(n NodeID, fn func(Edge) bool) {
	for _, eid := range g.in[n] {
		e := g.edges[eid]
		if e.deleted {
			continue
		}
		if !fn(e) {
			return
		}
	}
}

// OutDegree returns the number of live outgoing edges of n: read off the CSR
// when the graph has one (see CSR.OutDegree), an O(degree) edge-list scan on
// a graph that was never indexed (no build is forced, so a graph still being
// loaded never thrashes).
func (g *Graph) OutDegree(n NodeID) int {
	if c := g.FreshCSR(); c != nil {
		return c.OutDegree(n)
	}
	d := 0
	g.OutEdges(n, func(Edge) bool { d++; return true })
	return d
}

// InDegree returns the number of live incoming edges of n; see OutDegree.
func (g *Graph) InDegree(n NodeID) int {
	if c := g.FreshCSR(); c != nil {
		return c.InDegree(n)
	}
	d := 0
	g.InEdges(n, func(Edge) bool { d++; return true })
	return d
}

// Edges calls fn for every live edge in ID order.
func (g *Graph) Edges(fn func(Edge) bool) {
	for i := range g.edges {
		if g.edges[i].deleted {
			continue
		}
		if !fn(g.edges[i]) {
			return
		}
	}
}

// Nodes calls fn for every node in ID order.
func (g *Graph) Nodes(fn func(Node) bool) {
	for i := range g.nodes {
		if !fn(g.nodes[i]) {
			return
		}
	}
}

// EdgeString renders an edge as "Label From->To", matching the paper's
// line-graph node naming (e.g. "Friend A-C").
func (g *Graph) EdgeString(e Edge) string {
	return fmt.Sprintf("%s %s-%s", g.LabelName(e.Label), g.nodes[e.From].Name, g.nodes[e.To].Name)
}

// Clone returns a deep copy of g (tombstoned edges are dropped; surviving
// edges are renumbered densely).
func (g *Graph) Clone() *Graph {
	c := New()
	c.labels = g.labels.clone()
	c.nodes = make([]Node, len(g.nodes))
	c.out = make([][]EdgeID, len(g.nodes))
	c.in = make([][]EdgeID, len(g.nodes))
	for i, n := range g.nodes {
		c.nodes[i] = Node{ID: n.ID, Name: n.Name, Attrs: n.Attrs.Clone()}
		c.byName[n.Name] = n.ID
	}
	g.Edges(func(e Edge) bool {
		id := EdgeID(len(c.edges))
		c.edges = append(c.edges, Edge{ID: id, From: e.From, To: e.To, Label: e.Label, Weight: e.Weight})
		c.out[e.From] = append(c.out[e.From], id)
		c.in[e.To] = append(c.in[e.To], id)
		c.live++
		return true
	})
	return c
}

// SortedNodeNames returns all member names sorted, for deterministic output.
func (g *Graph) SortedNodeNames() []string {
	names := make([]string, 0, len(g.nodes))
	for _, n := range g.nodes {
		names = append(names, n.Name)
	}
	sort.Strings(names)
	return names
}

// Stats summarizes the graph for reporting.
type Stats struct {
	Nodes, Edges, Labels int
	MaxOutDegree         int
	MaxInDegree          int
}

// Stats computes summary statistics. It builds (and caches) the CSR view
// once, so the degree sweep is O(V) offset reads instead of O(V+E) scans.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), Labels: g.NumLabels()}
	if c := g.CSR(); c != nil {
		for i := range g.nodes {
			if d := c.OutDegree(NodeID(i)); d > s.MaxOutDegree {
				s.MaxOutDegree = d
			}
			if d := c.InDegree(NodeID(i)); d > s.MaxInDegree {
				s.MaxInDegree = d
			}
		}
		return s
	}
	for i := range g.nodes {
		if d := g.OutDegree(NodeID(i)); d > s.MaxOutDegree {
			s.MaxOutDegree = d
		}
		if d := g.InDegree(NodeID(i)); d > s.MaxInDegree {
			s.MaxInDegree = d
		}
	}
	return s
}
