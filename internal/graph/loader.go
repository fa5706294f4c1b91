package graph

import "strings"

// Loader builds a graph in bulk: it takes the nodes and edges of a whole
// graph, as a sequence of AddNode and AddEdge calls on a new Graph would,
// and Graph lays them out as a base in one pass. Added one by one, each
// node would be hashed into a name map and each edge would scan its
// source's cell for a duplicate, patch two CSR cells and log a delta, all
// of which the first Rebase throws away; a Loader only appends to the
// base's member columns and to edge records, which Graph lays out into the
// base's slabs and drops.
//
// The graph Graph returns is the one those calls on a new Graph followed by
// a Rebase give: the same node, edge and label IDs, weights and version,
// with an empty delta log and a CSR laid out over its base, so that
// NeedsRebase is false. A Loader rejects what AddNode and AddWeightedEdge
// reject, with their error text, except that Graph, not AddNode or AddEdge,
// reports a repeated name, a duplicate edge, or a graph whose CSR would
// cross its cell bound. A Loader keeps no name index, so its AddNode gives
// a repeated name an ID of its own; Graph reports the first repeat, before
// any duplicate edge, and returns no graph.
type Loader struct {
	names   strings.Builder
	off     []uint32
	attrs   []Attrs
	edges   []edgeRec
	weights []float64
	labels  *labelTable
}

// NewLoader returns an empty Loader.
func NewLoader() *Loader {
	return &Loader{off: []uint32{0}, labels: newLabelTable()}
}

// Grow makes room for the given numbers of further nodes and edges, so
// that a caller knowing the size of its graph pays for no growth of the
// tables, and Graph hands the member tables to the base as they are.
func (l *Loader) Grow(nodes, edges int) {
	l.off = grown(l.off, nodes)
	if l.attrs != nil {
		l.attrs = grown(l.attrs, nodes)
	}
	l.edges = grown(l.edges, edges)
}

// AddNode adds a member as Graph.AddNode does, but for a repeated name,
// which Graph reports.
func (l *Loader) AddNode(name string, attrs Attrs) (NodeID, error) {
	if err := checkNameBytes(l.names.Len() + len(name)); err != nil {
		return InvalidNode, err
	}
	id := NodeID(len(l.off) - 1)
	l.names.WriteString(name)
	l.off = append(l.off, uint32(l.names.Len()))
	l.attrs = withAttrs(l.attrs, int(id), cap(l.off)-1, attrs)
	return id, nil
}

// AddEdge adds a relationship as Graph.AddWeightedEdge does, its ID the
// number of edges added before it. A duplicate is reported by Graph.
func (l *Loader) AddEdge(from, to NodeID, label string, weight float64) error {
	if err := checkEndpoints(len(l.off)-1, from, to); err != nil {
		return err
	}
	l.weights = withWeight(l.weights, len(l.edges), weight)
	l.edges = append(l.edges, edgeRec{From: from, To: to, Label: l.labels.intern(label)})
	return nil
}

// Graph returns the graph loaded so far and empties the Loader. If some
// name repeats an earlier one, it returns the error AddNode gives the first
// such node instead, and else, if some edge repeats the (from, to, label)
// of an earlier one, the error AddWeightedEdge gives the first such edge.
func (l *Loader) Graph() (*Graph, error) {
	names := l.names.String()
	if l.names.Cap() != len(names) {
		names = strings.Clone(names)
	}
	b := &Base{names: names, off: tight(l.off), attrs: tight(l.attrs), weights: tight(l.weights)}
	recs := l.edges
	g := &Graph{b: b, labels: l.labels, live: len(recs)}
	*l = *NewLoader()
	var dup NodeID
	if b.index, dup = buildIndex(b.names, b.off); dup != InvalidNode {
		return nil, errDuplicateNode(b.node(dup).Name)
	}
	if err := checkCells(g.NumNodes(), g.labels.len()); err != nil {
		return nil, err
	}
	v := uint64(g.NumNodes() + g.live)
	g.version.Store(v)
	g.deltaBase = v
	b.layOut(recs, g.labels.len())
	g.csr = b.csr()
	if id := firstDuplicate(g.csr); id != InvalidEdge {
		e := g.rec(id)
		return nil, errDuplicateEdge(g.Node(e.From).Name, g.LabelName(e.Label), g.Node(e.To).Name)
	}
	return g, nil
}

// firstDuplicate returns the lowest-numbered edge of a freshly laid out c
// that repeats the (from, to, label) of a lower-numbered one, the first that
// AddWeightedEdge would reject, or InvalidEdge if there is none. A repeat
// shares its cell with the edge it repeats, and a cell's run is in ID order,
// so a mark per node, stamped with the cell, finds in one pass over the out
// slab every edge that repeats an earlier one in its run.
func firstDuplicate(c *CSR) EdgeID {
	first := InvalidEdge
	mark := make([]uint32, c.NumNodes()) // mark[t] == i+1: cell i reaches t
	for i := range len(c.out.off) - 1 {
		for j := c.out.off[i]; j < c.out.off[i+1]; j++ {
			t := c.out.nbr[j]
			if mark[t] == uint32(i+1) {
				first = min(first, c.out.ids[j])
			}
			mark[t] = uint32(i + 1)
		}
	}
	return first
}
