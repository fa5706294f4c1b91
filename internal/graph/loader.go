package graph

import (
	"cmp"
	"maps"
	"slices"
)

// Loader builds a graph in bulk: it takes the nodes and edges of a whole
// graph, as a sequence of AddNode and AddEdge calls on a new Graph would,
// and Graph lays them out as a base in one pass. Added one by one, each
// edge would scan its source's list for a duplicate, grow two edge lists
// and log a delta, all of which the first Rebase throws away; a Loader
// only appends records.
//
// The graph Graph returns is the one those calls on a new Graph followed by
// a Rebase give: the same node, edge and label IDs, weights and version,
// with an empty delta log and a CSR laid out over its base, so that
// NeedsRebase is false. A Loader rejects what AddNode and AddWeightedEdge
// reject, with their error text, except that Graph, not AddEdge, reports a
// duplicate edge.
type Loader struct {
	nodes   []Node
	names   map[string]NodeID
	edges   []edgeRec
	weights []float64
	labels  *labelTable
}

// NewLoader returns an empty Loader.
func NewLoader() *Loader {
	return &Loader{names: make(map[string]NodeID), labels: newLabelTable()}
}

// Grow makes room for the given numbers of further nodes and edges, so
// that a caller knowing the size of its graph pays for no growth of the
// tables, and Graph hands them to the base as they are.
func (l *Loader) Grow(nodes, edges int) {
	l.nodes = grown(l.nodes, nodes)
	l.edges = grown(l.edges, edges)
	names := make(map[string]NodeID, len(l.names)+nodes)
	maps.Copy(names, l.names)
	l.names = names
}

// AddNode adds a member as Graph.AddNode does.
func (l *Loader) AddNode(name string, attrs Attrs) (NodeID, error) {
	if id, ok := l.names[name]; ok {
		return id, errDuplicateNode(name)
	}
	id := NodeID(len(l.nodes))
	l.nodes = append(l.nodes, Node{ID: id, Name: name, Attrs: attrs})
	l.names[name] = id
	return id, nil
}

// AddEdge adds a relationship as Graph.AddWeightedEdge does, its ID the
// number of edges added before it. A duplicate is reported by Graph.
func (l *Loader) AddEdge(from, to NodeID, label string, weight float64) error {
	if err := checkEndpoints(len(l.nodes), from, to); err != nil {
		return err
	}
	l.weights = withWeight(l.weights, len(l.edges), weight)
	l.edges = append(l.edges, edgeRec{From: from, To: to, Label: l.labels.intern(label)})
	return nil
}

// Graph returns the graph loaded so far and empties the Loader. If some
// edge repeats the (from, to, label) of an earlier one, it returns the
// error AddWeightedEdge gives the first such edge instead.
func (l *Loader) Graph() (*Graph, error) {
	g := &Graph{b: &Base{}, nodes: l.nodes, names: l.names, edges: l.edges, weights: l.weights, labels: l.labels, live: len(l.edges)}
	*l = *NewLoader()
	v := uint64(len(g.nodes) + g.live)
	g.version.Store(v)
	g.deltaBase = v
	g.Rebase()
	if id := firstDuplicate(g.b); id != InvalidEdge {
		e := g.rec(id)
		return nil, errDuplicateEdge(g.Node(e.From).Name, g.LabelName(e.Label), g.Node(e.To).Name)
	}
	return g, nil
}

// firstDuplicate returns the lowest-numbered edge of b that repeats the
// (from, to, label) of a lower-numbered one, the first that AddWeightedEdge
// would reject, or InvalidEdge if there is none. It visits one source's
// run at a time: a mark per node finds the runs that reach some target
// twice, the only ones that can hold a duplicate, and only those are
// sorted.
func firstDuplicate(b *Base) EdgeID {
	first := InvalidEdge
	mark := make([]uint32, len(b.nodes)) // mark[t] == n+1: n's run reaches t
	var run []EdgeID
	for n := range len(b.nodes) {
		ids := b.out.ids[b.out.off[n]:b.out.off[n+1]]
		repeats := false
		for _, id := range ids {
			t := b.edges[id].To
			repeats = repeats || mark[t] == uint32(n+1)
			mark[t] = uint32(n + 1)
		}
		if !repeats {
			continue
		}
		run = append(run[:0], ids...)
		slices.SortFunc(run, func(x, y EdgeID) int {
			ex, ey := &b.edges[x], &b.edges[y]
			return cmp.Or(cmp.Compare(ex.To, ey.To), cmp.Compare(ex.Label, ey.Label), cmp.Compare(x, y))
		})
		for i := 1; i < len(run); i++ {
			if p, q := &b.edges[run[i-1]], &b.edges[run[i]]; p.To == q.To && p.Label == q.Label {
				first = min(first, run[i])
			}
		}
	}
	return first
}
