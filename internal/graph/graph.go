// Package graph implements the social network graph of Definition 1 in the
// paper: a directed, edge-labeled graph G = (V, E, λ, δ) where λ carries
// per-node attribute tuples and δ assigns each edge a relationship type from
// a finite alphabet Σ.
//
// The representation favors read-heavy access-control workloads: nodes are
// stored as dense columns indexed by NodeID — a base's member names in one
// string beside a pointer-free name index — and the adjacency is one
// label-partitioned compressed-sparse-row view (see CSR), in which a base
// also stores its edges: an edge's ID maps to its position in the out
// slab, whose cell is its source and label. Edges may be removed
// (tombstoned); node IDs are never reused. A graph is an immutable Base,
// shared with every clone taken of it, plus a private part holding what
// changed since that base (see Graph).
package graph

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
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
// tuple λ(v). A node's attributes never change after AddNode, so clones
// share them. A base stores its nodes as columns (see Base) and assembles a
// Node when asked for one.
type Node struct {
	ID    NodeID
	Name  string
	Attrs Attrs
}

// Edge is a directed relationship (x, y) with type δ(e) and an optional
// weight (the paper's figures annotate some edges with trust weights such as
// "Babysitting;0.8"; the weight is carried but not interpreted by the model).
// A graph assembles an Edge when asked for one: from its base's slabs, or
// from a record of its private part.
type Edge struct {
	ID     EdgeID
	From   NodeID
	To     NodeID
	Label  Label
	Weight float64
}

// edgeRec is how a graph's private part stores an edge, and what a layout
// reads: the Edge less its ID, which is the record's index in its table,
// and its weight, which lives in a column of its own (see Base). 12 bytes,
// against Edge's 24. A base holds no records; a pass over its edges
// materializes them as scratch (see Base.records).
type edgeRec struct {
	From, To NodeID
	Label    Label
}

// weightAt returns weights[i], or 0 from a column never allocated.
func weightAt(weights []float64, i int) float64 {
	if weights == nil {
		return 0
	}
	return weights[i]
}

// withWeight appends w to the column of a table that held n records before
// the one w belongs to, allocating the column, zero for those n, at the
// first nonzero weight.
func withWeight(weights []float64, n int, w float64) []float64 {
	if weights == nil {
		if w == 0 {
			return nil
		}
		weights = make([]float64, n, n+1)
	}
	return append(weights, w)
}

// Graph is the social network graph. The zero value is not usable; call New.
//
// A graph is two parts. Its base (see Base) is immutable and shared: Clone
// gives the copy the same base and copies only the private part — the nodes
// and edges added since the base, the tombstones of removed edges, and the
// CSR cells those changes touched — so a clone costs what changed since the
// base, never O(V+E). Rebase folds the private part into a new base.
//
// Who may write what: nothing writes a base, and Rebase builds a new one
// rather than extending the old. The node, edge and weight tables of the
// private part may share backing arrays with clones, which Clone clips, so
// a graph only ever appends to them: the append slack of an array belongs
// to the one graph holding it unclipped. Clone copies the CSR's overlay.
type Graph struct {
	b *Base
	// nodes and edges are the records added since the base: node id is
	// nodes[id-b.numNodes()] and edge id is edges[id-b.numEdges()] once id
	// is past the base's. names indexes the added nodes by name, nameBytes
	// totals their lengths, and weights is the edges' weight column (see
	// Base).
	nodes     []Node
	names     map[string]NodeID
	nameBytes int
	edges     []edgeRec
	weights   []float64
	// dead holds the removed edges, of the base and added since.
	dead   map[EdgeID]struct{}
	labels *labelTable
	live   int // number of non-removed edges
	// version counts structural mutations (node/edge additions, edge
	// removals); precomputed evaluators record it to detect staleness. It
	// is atomic so that snapshot validity checks may read it without
	// holding the mutator's lock; all other fields still require external
	// synchronization between mutators and readers.
	version atomic.Uint64
	// deltas is the bounded mutation log backing ChangesSince: deltas[i]
	// is the mutation that advanced the version from deltaBase+i to
	// deltaBase+i+1. Clones advanced through the log skip the re-clone a
	// mutation would otherwise force on the next snapshot.
	deltas    []Delta
	deltaBase uint64
	// deltaLimit bounds the retained window (0 means
	// DefaultDeltaLogLimit; negative disables logging).
	deltaLimit int
	// csr is the graph's adjacency, which the mutators below patch (see
	// CSR); never nil.
	csr *CSR
}

// Base is the immutable part of a graph: the member table and the edge
// table, laid out by Rebase. The graph that rebased and every clone taken of
// it since share one Base; nothing writes it, so any number of them may
// read it without synchronization, and the garbage collector frees it once
// no graph points at it. Its edges are live edges only, IDs 0 to
// numEdges()-1: a rebase drops tombstones.
//
// The member table is columns (see members.go): node i is named
// names[off[i]:off[i+1]], a substring of every name in ID order, and has the
// attributes attrs[i], and index resolves a name to its node. Attrs is nil,
// and every node's attributes nil, until some node has attributes, so a
// member without them costs its name's bytes, 4 bytes of offset and 8 to 16
// of index.
//
// The edge table is the CSR slabs out and in, with cells for labels labels
// (see CSR), which every graph on the base reads as its CSR, plus pos:
// edge i is at out position pos[i], and dir samples the out cells for
// finding the one holding a position (see edges.go). Weights are a column
// beside them, weights[i] edge i's: nil, and every weight 0, until some
// edge has a nonzero one. An unweighted base stores 16 bytes per edge — a
// target and an ID out, a source in, and pos — and a weighted one 24.
type Base struct {
	names   string
	off     []uint32
	attrs   []Attrs
	index   []uint32
	labels  int
	out, in slabs
	pos     []uint32
	dir     []uint32
	weights []float64
}

// New returns an empty social network graph.
func New() *Graph {
	b := &Base{}
	b.layOut(nil, 0)
	return &Graph{b: b, labels: newLabelTable(), csr: b.csr()}
}

// Base returns the graph's shared base. Graphs returning the same Base share
// its tables; Rebase moves a graph to a new one.
func (g *Graph) Base() *Base { return g.b }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.b.numNodes() + len(g.nodes) }

// NumEdges returns the number of live (non-removed) edges.
func (g *Graph) NumEdges() int { return g.live }

// NumTombstones returns the number of removed edges the graph carries until
// its next Rebase.
func (g *Graph) NumTombstones() int { return len(g.dead) }

// NumLabels returns |Σ|, the number of distinct relationship types seen.
func (g *Graph) NumLabels() int { return g.labels.len() }

// Version returns the structural mutation counter: it changes whenever a
// node is added or an edge is added or removed. Indexes built over the
// graph record it to detect staleness. Version is safe to call concurrently
// with mutations (it is the one lock-free read the graph supports).
func (g *Graph) Version() uint64 { return g.version.Load() }

// AddNode adds a member with the given unique name and attributes and
// returns its ID. Adding a duplicate name returns the existing node's ID and
// an error, and a node that would take the CSR past its cell bound (see
// CSR), or the names past maxNameBytes, InvalidNode and an error. The graph
// keeps attrs, which must not be modified afterwards.
func (g *Graph) AddNode(name string, attrs Attrs) (NodeID, error) {
	if id, ok := g.NodeByName(name); ok {
		return id, errDuplicateNode(name)
	}
	id := NodeID(g.NumNodes())
	if err := checkCells(int(id)+1, g.csr.labels); err != nil {
		return InvalidNode, err
	}
	if err := checkNameBytes(len(g.b.names) + g.nameBytes + len(name)); err != nil {
		return InvalidNode, err
	}
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Attrs: attrs})
	if g.names == nil {
		g.names = make(map[string]NodeID)
	}
	g.names[name] = id
	g.nameBytes += len(name)
	g.version.Add(1)
	g.csr.addNode()
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
	if id, ok := g.b.lookup(name); ok {
		return id, true
	}
	id, ok := g.names[name]
	return id, ok
}

// Node returns the node record for id. It panics if id is out of range.
func (g *Graph) Node(id NodeID) Node {
	if nb := g.b.numNodes(); int(id) >= nb {
		return g.nodes[int(id)-nb]
	}
	return g.b.node(id)
}

// Attr returns one attribute of a node.
func (g *Graph) Attr(id NodeID, key string) (Value, bool) {
	return g.Node(id).Attrs.Get(key)
}

// ValidNode reports whether id names an existing node.
func (g *Graph) ValidNode(id NodeID) bool { return int(id) < g.NumNodes() }

// Label interns a relationship-type name, creating it if needed. It lays
// nothing out: the CSR gets cells for the label when an edge first carries
// it.
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
// and a duplicate (from, to, label) triple is rejected. An edge under a
// label the CSR has no cells for re-lays the CSR out over the whole label
// table, and is rejected if that would cross its cell bound (see CSR).
func (g *Graph) AddEdge(from, to NodeID, label string) (EdgeID, error) {
	return g.AddWeightedEdge(from, to, label, 0)
}

// AddWeightedEdge is AddEdge carrying an uninterpreted weight annotation.
func (g *Graph) AddWeightedEdge(from, to NodeID, label string, weight float64) (EdgeID, error) {
	if err := checkEndpoints(g.NumNodes(), from, to); err != nil {
		return InvalidEdge, err
	}
	l, ok := g.labels.lookup(label)
	if !ok || int(l) >= g.csr.labels {
		width := g.labels.len()
		if !ok {
			width++
		}
		if err := checkCells(g.NumNodes(), width); err != nil {
			return InvalidEdge, err
		}
		l = g.labels.intern(label)
		g.layOut(width)
	}
	if g.csr.edgeID(from, to, l) != InvalidEdge {
		return InvalidEdge, errDuplicateEdge(g.Node(from).Name, label, g.Node(to).Name)
	}
	id := EdgeID(g.numEdgeIDs())
	g.csr.addEdge(from, to, l, id)
	g.weights = withWeight(g.weights, len(g.edges), weight)
	g.edges = append(g.edges, edgeRec{From: from, To: to, Label: l})
	g.live++
	g.version.Add(1)
	g.record(Delta{Op: OpAddEdge, From: from, To: to, Label: label, Weight: weight})
	return id, nil
}

// checkEndpoints returns the error an edge from -> to gets in a graph of n
// nodes: an endpoint out of range or a self-loop. nil for a valid pair.
func checkEndpoints(n int, from, to NodeID) error {
	if int(from) >= n || int(to) >= n {
		return fmt.Errorf("graph: edge endpoints out of range (%d, %d)", from, to)
	}
	if from == to {
		return fmt.Errorf("graph: self-loop on node %d rejected", from)
	}
	return nil
}

func errDuplicateNode(name string) error {
	return fmt.Errorf("graph: node %q already exists", name)
}

func errDuplicateEdge(from, label, to string) error {
	return fmt.Errorf("graph: duplicate edge %s -%s-> %s", from, label, to)
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
// is an error. Node IDs and surviving edge IDs are stable until the next
// Rebase.
func (g *Graph) RemoveEdge(id EdgeID) error {
	if !g.EdgeAlive(id) {
		return fmt.Errorf("graph: no live edge %d", id)
	}
	e := g.rec(id)
	if g.dead == nil {
		g.dead = make(map[EdgeID]struct{})
	}
	g.dead[id] = struct{}{}
	g.live--
	g.version.Add(1)
	g.csr.removeEdge(e.From, e.To, e.Label)
	g.record(Delta{Op: OpRemoveEdge, From: e.From, To: e.To, Label: g.labels.name(e.Label)})
	return nil
}

// numEdgeIDs returns the number of edge IDs given out: live edges and
// tombstones.
func (g *Graph) numEdgeIDs() int { return g.b.numEdges() + len(g.edges) }

// rec returns the record of edge id, which must be in range: a lookup in
// the base's slabs (see Base.edge) or a read of the private part.
func (g *Graph) rec(id EdgeID) edgeRec {
	if nb := g.b.numEdges(); int(id) >= nb {
		return g.edges[int(id)-nb]
	}
	return g.b.edge(id)
}

// Weight returns the weight of edge id (which may be tombstoned), which
// must be in range.
func (g *Graph) Weight(id EdgeID) float64 {
	if nb := g.b.numEdges(); int(id) >= nb {
		return weightAt(g.weights, int(id)-nb)
	}
	return weightAt(g.b.weights, int(id))
}

// isDead reports whether edge id was removed.
func (g *Graph) isDead(id EdgeID) bool {
	if len(g.dead) == 0 {
		return false
	}
	_, ok := g.dead[id]
	return ok
}

// deadSet returns the removed edges as a bitset over edge IDs (nil for
// none), for passes over every edge, where a map probe per edge costs most.
func (g *Graph) deadSet() []uint64 {
	if len(g.dead) == 0 {
		return nil
	}
	set := make([]uint64, (g.numEdgeIDs()+63)/64)
	for id := range g.dead {
		set[id>>6] |= 1 << (id & 63)
	}
	return set
}

// inSet reports whether id is in a set deadSet returned.
func inSet(set []uint64, id EdgeID) bool {
	return set != nil && set[id>>6]&(1<<(id&63)) != 0
}

// EdgeAlive reports whether id names a live edge.
func (g *Graph) EdgeAlive(id EdgeID) bool {
	return int(id) < g.numEdgeIDs() && !g.isDead(id)
}

// Edge returns the edge record for id (which may be tombstoned; check
// EdgeAlive). It panics if id is out of range. A caller that knows the
// edge's endpoints and label has all of it but the weight (see Weight).
func (g *Graph) Edge(id EdgeID) Edge { return g.assemble(id, g.rec(id)) }

// assemble returns edge id, whose record is r.
func (g *Graph) assemble(id EdgeID, r edgeRec) Edge {
	return Edge{ID: id, From: r.From, To: r.To, Label: r.Label, Weight: g.Weight(id)}
}

// FindEdge returns the live edge (from, to, label) or InvalidEdge: a scan
// of the (from, label) cell of the CSR.
func (g *Graph) FindEdge(from, to NodeID, label Label) EdgeID {
	if !g.ValidNode(from) || int(label) >= g.csr.labels {
		return InvalidEdge
	}
	return g.csr.edgeID(from, to, label)
}

// HasEdge reports whether a live (from, to, label-name) edge exists.
func (g *Graph) HasEdge(from, to NodeID, label string) bool {
	l, ok := g.labels.lookup(label)
	if !ok {
		return false
	}
	return g.FindEdge(from, to, l) != InvalidEdge
}

// OutEdges calls fn for every live outgoing edge of n, in ID order, which is
// the order they were added in. fn returning false stops the iteration.
func (g *Graph) OutEdges(n NodeID, fn func(Edge) bool) {
	var buf [32]Edge
	es := buf[:0]
	for l := range g.csr.labels {
		es = g.appendOut(es, n, Label(l))
	}
	slices.SortFunc(es, byID)
	g.each(es, fn)
}

// Neighbors calls fn once per live outgoing edge of n with the target
// node, in ID order (a target reachable over several labels is visited once
// per label). fn returning false stops the iteration. It is the adjacency
// view workload.Source asks of a graph-shaped value.
func (g *Graph) Neighbors(n NodeID, fn func(NodeID) bool) {
	g.OutEdges(n, func(e Edge) bool { return fn(e.To) })
}

// InEdges calls fn for every live incoming edge of n, in ID order.
func (g *Graph) InEdges(n NodeID, fn func(Edge) bool) {
	var buf [32]Edge
	es := buf[:0]
	for l := range g.csr.labels {
		es = g.appendIn(es, n, Label(l))
	}
	slices.SortFunc(es, byID)
	g.each(es, fn)
}

// LabeledOutEdges calls fn for every live outgoing edge of n under label l,
// in ID order: a read of one CSR cell. fn returning false stops the
// iteration.
func (g *Graph) LabeledOutEdges(n NodeID, l Label, fn func(Edge) bool) {
	if int(l) >= g.csr.labels {
		return
	}
	r := g.csr.outRun(n, l)
	for j, id := range r.ids {
		if !fn(Edge{ID: id, From: n, To: NodeID(r.nbr[j]), Label: l, Weight: g.Weight(id)}) {
			return
		}
	}
}

// LabeledInEdges is LabeledOutEdges for n's incoming edges, each found by a
// scan of one out cell of its source.
func (g *Graph) LabeledInEdges(n NodeID, l Label, fn func(Edge) bool) {
	if int(l) < g.csr.labels {
		var buf [32]Edge
		g.each(g.appendIn(buf[:0], n, l), fn)
	}
}

// appendOut appends to dst the live edges of the out cell (n, l), in ID
// order, less their weights: a CSR cell holds the rest of each.
func (g *Graph) appendOut(dst []Edge, n NodeID, l Label) []Edge {
	r := g.csr.outRun(n, l)
	for j, id := range r.ids {
		dst = append(dst, Edge{ID: id, From: n, To: NodeID(r.nbr[j]), Label: l})
	}
	return dst
}

// appendIn appends to dst the live edges of the in cell (n, l), in ID
// order, less their weights: each in-neighbor m is the edge m -l-> n, which
// is unique, and its ID is found in m's out cell.
func (g *Graph) appendIn(dst []Edge, n NodeID, l Label) []Edge {
	for _, m := range g.csr.InNeighbors(n, l) {
		dst = append(dst, Edge{ID: g.csr.edgeID(NodeID(m), n, l), From: NodeID(m), To: n, Label: l})
	}
	return dst
}

// byID orders edges by ID.
func byID(a, b Edge) int { return cmp.Compare(a.ID, b.ID) }

// each calls fn with every edge of es, its weight filled in, until fn
// returns false.
func (g *Graph) each(es []Edge, fn func(Edge) bool) {
	for _, e := range es {
		e.Weight = g.Weight(e.ID)
		if !fn(e) {
			return
		}
	}
}

// OutDegree returns the number of live outgoing edges of n, read off the
// CSR (see CSR.OutDegree).
func (g *Graph) OutDegree(n NodeID) int { return g.csr.OutDegree(n) }

// InDegree returns the number of live incoming edges of n; see OutDegree.
func (g *Graph) InDegree(n NodeID) int { return g.csr.InDegree(n) }

// Edges calls fn for every live edge in ID order. The base's edges are
// read from one walk of its cells into scratch records (see Base.records),
// so a pass costs O(V+E) and 12 bytes per base edge while it runs.
func (g *Graph) Edges(fn func(Edge) bool) {
	recs := g.b.records(0)
	for id, r := range recs {
		if !g.isDead(EdgeID(id)) && !fn(g.assemble(EdgeID(id), r)) {
			return
		}
	}
	for i, r := range g.edges {
		if id := EdgeID(len(recs) + i); !g.isDead(id) && !fn(g.assemble(id, r)) {
			return
		}
	}
}

// Nodes calls fn for every node in ID order.
func (g *Graph) Nodes(fn func(Node) bool) {
	for id := range g.b.numNodes() {
		if !fn(g.b.node(NodeID(id))) {
			return
		}
	}
	for i := range g.nodes {
		if !fn(g.nodes[i]) {
			return
		}
	}
}

// EdgeString renders an edge as "Label From->To", matching the paper's
// line-graph node naming (e.g. "Friend A-C").
func (g *Graph) EdgeString(e Edge) string {
	return fmt.Sprintf("%s %s-%s", g.LabelName(e.Label), g.Node(e.From).Name, g.Node(e.To).Name)
}

// Clone returns a copy of g that shares g's base and copies its private part
// (see Graph): O(what changed since the base), never O(V+E). Edge IDs,
// tombstones, the version and the CSR carry over; the delta log does not.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		b:         g.b,
		nodes:     slices.Clip(g.nodes),
		names:     maps.Clone(g.names),
		nameBytes: g.nameBytes,
		edges:     slices.Clip(g.edges),
		weights:   slices.Clip(g.weights),
		dead:      maps.Clone(g.dead),
		labels:    g.labels.clone(),
		live:      g.live,
		csr:       g.csr.clone(),
	}
	v := g.version.Load()
	c.version.Store(v)
	c.deltaBase = v
	return c
}

// Rebase folds the private part into a new base, laid out with cells for
// the labels the CSR has, and gives the graph a CSR over the new base's
// slabs: O(V+E), after which a Clone copies only what changes next.
// Tombstones are dropped and the surviving edges renumbered densely, so
// EdgeIDs held across a Rebase are invalid; node IDs, the version and the
// delta log stay (no relationship changed). The old base is not written:
// clones on it keep reading it until the last of them goes. Nodes added
// since the base give the new base a fresh member table: the old names and
// the new ones copied into one string, and a new index. The first rebase of
// a graph built since New moves its weight column into the base instead of
// concatenating, copying it only if it has append slack, so that a base
// holds no slack. Rebase returns the new CSR.
func (g *Graph) Rebase() *CSR {
	b := g.b
	next := Base{names: b.names, off: b.off, attrs: b.attrs, index: b.index, weights: b.weights}
	if len(g.nodes) > 0 {
		next.names, next.off, next.attrs, next.index = b.withNodes(g.nodes)
	}
	// The live records in their new ID order, scratch for the layout.
	recs := g.records()
	switch {
	case len(g.dead) > 0:
		dead, live := g.deadSet(), recs[:0]
		next.weights = nil
		for id, r := range recs {
			if !inSet(dead, EdgeID(id)) {
				next.weights = withWeight(next.weights, len(live), g.Weight(EdgeID(id)))
				live = append(live, r)
			}
		}
		recs = live
	case len(g.edges) == 0:
	case b.numEdges() == 0:
		next.weights = tight(g.weights)
	case b.weights != nil || g.weights != nil:
		next.weights = make([]float64, len(recs))
		copy(next.weights, b.weights)
		copy(next.weights[b.numEdges():], g.weights)
	}
	next.layOut(recs, g.csr.labels)
	g.b, g.csr = &next, next.csr()
	g.nodes, g.names, g.nameBytes, g.edges, g.weights, g.dead = nil, nil, 0, nil, nil, nil
	return g.csr
}

// tight returns s, or a copy of it without append slack if it has some.
func tight[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	return append(make(S, 0, len(s)), s...)
}

// grown returns s with room for n more elements: s itself if it has it,
// else a copy with exactly that room.
func grown[S ~[]E, E any](s S, n int) S {
	if n <= cap(s)-len(s) {
		return s
	}
	return append(make(S, 0, len(s)+n), s...)
}

// NeedsRebase reports whether a Clone would copy more than a bounded private
// part, or the graph holds more than its base: the CSR holds slabs of its
// own, not the base's (it was re-laid out for a new label, or built by
// BuildCSR over a private part), or its patches crossed the overlay bound
// (see CSR).
func (g *Graph) NeedsRebase() bool {
	c := g.csr
	return c.base != g.b || c.overlay > c.limit
}

// SortedNodeNames returns all member names sorted, for deterministic output.
func (g *Graph) SortedNodeNames() []string {
	names := make([]string, 0, g.NumNodes())
	g.Nodes(func(n Node) bool {
		names = append(names, n.Name)
		return true
	})
	sort.Strings(names)
	return names
}

// Stats summarizes the graph for reporting.
type Stats struct {
	Nodes, Edges, Labels int
	MaxOutDegree         int
	MaxInDegree          int
}

// Stats computes summary statistics: the degree sweep is O(V) CSR offset
// reads.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), Labels: g.NumLabels()}
	for i := 0; i < s.Nodes; i++ {
		s.MaxOutDegree = max(s.MaxOutDegree, g.OutDegree(NodeID(i)))
		s.MaxInDegree = max(s.MaxInDegree, g.InDegree(NodeID(i)))
	}
	return s
}
