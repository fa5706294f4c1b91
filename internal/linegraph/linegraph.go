// Package linegraph builds the directed line graph L(G) of the social graph
// (Definition 4): each vertex of L(G) represents one traversal of an edge of
// G, and x -> y in L(G) iff the head of x's traversal is the tail of y's.
//
// Two departures from the paper's presentation:
//
//   - Orientation doubling. The paper's figures only compose edges head-to-
//     tail (outgoing steps). Access conditions may also use incoming ('-')
//     and undirected ('*') steps, so each social edge e = (u,v) may yield
//     two line nodes: e+ (traverse u->v) and e- (traverse v->u). Forward-only
//     construction (the figures' view) is available via Opts.
//
//   - Virtual roots. The paper's reachability table (Figure 5) includes a
//     synthetic "Null A" line node so that the owner Alice is representable
//     as a line vertex; Opts.VirtualRoots reproduces that convention.
package linegraph

import (
	"fmt"
	"sort"

	"reachac/internal/digraph"
	"reachac/internal/graph"
)

// Node is one vertex of L(G): a traversal of a social edge, from Tail to
// Head. Virtual-root nodes have Edge == graph.InvalidEdge and Tail ==
// graph.InvalidNode.
type Node struct {
	Edge    graph.EdgeID
	Forward bool
	Label   graph.Label
	Tail    graph.NodeID
	Head    graph.NodeID
	Virtual bool
}

// Opts configures construction.
type Opts struct {
	// IncludeReverse adds the e- (backward traversal) line node for every
	// edge, enabling '-' and '*' steps. The paper's figures use forward
	// only.
	IncludeReverse bool
	// VirtualRoots adds one synthetic line node per listed member, with an
	// edge to every line node whose tail is that member (the paper's
	// "Null A" convention).
	VirtualRoots []graph.NodeID
}

// L is the line graph with its lookup tables.
type L struct {
	G     *graph.Graph
	Nodes []Node
	// D is the adjacency among line nodes: i -> j iff Nodes[i].Head ==
	// Nodes[j].Tail (virtual roots point at their member's outgoing
	// traversals).
	D *digraph.D
	// byTail groups line-node indices by traversal tail.
	byTail map[graph.NodeID][]int32
	// byLabelDir groups line-node indices by (label, forward): the source
	// of the per-label base tables of §3.3.
	byLabelDir map[labelDir][]int32
	// fwdOf / revOf map a social edge to its line node(s); -1 when absent.
	fwdOf []int32
	revOf []int32
	// rootOf maps a member to its virtual-root line node; -1 when absent.
	rootOf map[graph.NodeID]int32
}

type labelDir struct {
	label   graph.Label
	forward bool
}

// Build constructs L(G).
func Build(g *graph.Graph, opts Opts) *L {
	l := &L{
		G:          g,
		byTail:     make(map[graph.NodeID][]int32),
		byLabelDir: make(map[labelDir][]int32),
		rootOf:     make(map[graph.NodeID]int32),
	}
	// One pass to size fwdOf/revOf: edge IDs are dense including tombstones.
	maxEdge := 0
	g.Edges(func(e graph.Edge) bool {
		if int(e.ID) >= maxEdge {
			maxEdge = int(e.ID) + 1
		}
		return true
	})
	l.fwdOf = make([]int32, maxEdge)
	l.revOf = make([]int32, maxEdge)
	for i := range l.fwdOf {
		l.fwdOf[i] = -1
		l.revOf[i] = -1
	}

	add := func(n Node) int32 {
		id := int32(len(l.Nodes))
		l.Nodes = append(l.Nodes, n)
		if !n.Virtual {
			l.byTail[n.Tail] = append(l.byTail[n.Tail], id)
			l.byLabelDir[labelDir{n.Label, n.Forward}] = append(l.byLabelDir[labelDir{n.Label, n.Forward}], id)
		}
		return id
	}

	for _, r := range opts.VirtualRoots {
		l.rootOf[r] = add(Node{Edge: graph.InvalidEdge, Forward: true, Tail: graph.InvalidNode, Head: r, Virtual: true})
	}
	g.Edges(func(e graph.Edge) bool {
		l.fwdOf[e.ID] = add(Node{Edge: e.ID, Forward: true, Label: e.Label, Tail: e.From, Head: e.To})
		if opts.IncludeReverse {
			l.revOf[e.ID] = add(Node{Edge: e.ID, Forward: false, Label: e.Label, Tail: e.To, Head: e.From})
		}
		return true
	})

	d := digraph.New(len(l.Nodes))
	for i := range l.Nodes {
		for _, j := range l.byTail[l.Nodes[i].Head] {
			d.AddEdge(i, int(j))
		}
	}
	l.D = d
	return l
}

// NumNodes returns |V(L(G))|.
func (l *L) NumNodes() int { return len(l.Nodes) }

// NumEdges returns |E(L(G))|.
func (l *L) NumEdges() int { return l.D.M() }

// ByLabelDir returns the line-node indices with the given label and
// orientation — one per-label "base table" of §3.3. The slice must not be
// modified.
func (l *L) ByLabelDir(label graph.Label, forward bool) []int32 {
	return l.byLabelDir[labelDir{label, forward}]
}

// ByTail returns the line nodes whose traversal starts at member n.
func (l *L) ByTail(n graph.NodeID) []int32 { return l.byTail[n] }

// Forward returns the line node traversing edge e forward, or -1 (also -1
// for edges added to G after the line graph was built).
func (l *L) Forward(e graph.EdgeID) int32 {
	if int(e) >= len(l.fwdOf) {
		return -1
	}
	return l.fwdOf[e]
}

// AddForwardNode appends the forward line node of a social edge added to G
// after Build and wires its adjacency from the caller-collected endpoints:
// preds are the existing line nodes whose head is e.From, succs those
// whose tail is e.To (callers already walk both adjacency lists to decide
// whether the insertion is safe, so the sets are passed in rather than
// re-derived). Line nodes of edges registered later in the same delta
// batch are absent from both sets; they wire both sides when their own
// turn comes. Only forward line nodes are grown — the incremental path is
// used by index configurations built without IncludeReverse.
func (l *L) AddForwardNode(e graph.Edge, preds, succs []int32) int32 {
	id := int32(len(l.Nodes))
	n := Node{Edge: e.ID, Forward: true, Label: e.Label, Tail: e.From, Head: e.To}
	l.Nodes = append(l.Nodes, n)
	l.byTail[n.Tail] = append(l.byTail[n.Tail], id)
	l.byLabelDir[labelDir{n.Label, true}] = append(l.byLabelDir[labelDir{n.Label, true}], id)
	for int(e.ID) >= len(l.fwdOf) {
		l.fwdOf = append(l.fwdOf, -1)
		l.revOf = append(l.revOf, -1)
	}
	l.fwdOf[e.ID] = id
	l.D.Grow(1)
	if r, ok := l.rootOf[n.Tail]; ok {
		l.D.AddEdge(int(r), int(id))
	}
	for _, p := range preds {
		l.D.AddEdge(int(p), int(id))
	}
	for _, s := range succs {
		l.D.AddEdge(int(id), int(s))
	}
	return id
}

// Backward returns the line node traversing edge e backward, or -1 (also -1
// when the graph was built without IncludeReverse).
func (l *L) Backward(e graph.EdgeID) int32 {
	if int(e) >= len(l.revOf) {
		return -1
	}
	return l.revOf[e]
}

// Root returns the virtual-root line node of member n, or -1.
func (l *L) Root(n graph.NodeID) int32 {
	if id, ok := l.rootOf[n]; ok {
		return id
	}
	return -1
}

// NodeString names a line node the way the paper's figures do
// ("Friend A-C"); backward traversals get a trailing apostrophe and virtual
// roots render as "Null X".
func (l *L) NodeString(i int) string {
	n := l.Nodes[i]
	if n.Virtual {
		return "Null " + l.G.Node(n.Head).Name
	}
	s := fmt.Sprintf("%s %s-%s", l.G.LabelName(n.Label), l.G.Node(n.Tail).Name, l.G.Node(n.Head).Name)
	if !n.Forward {
		s += "'"
	}
	return s
}

// SortedNodeStrings returns all line-node names sorted, for deterministic
// figure output.
func (l *L) SortedNodeStrings() []string {
	out := make([]string, len(l.Nodes))
	for i := range l.Nodes {
		out[i] = l.NodeString(i)
	}
	sort.Strings(out)
	return out
}
