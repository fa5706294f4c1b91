package graph

import (
	"fmt"
	"maps"
	"slices"
)

// CSR is a compressed-sparse-row view of the graph's live adjacency,
// label-partitioned: for every (node, label) pair the out- and in-neighbors
// form one contiguous []uint32 run. It is the graph's only adjacency. A BFS
// constrained to one relationship type touches exactly the run it needs (no
// per-edge label filtering, no pointer chasing through edge records), and
// per-node degrees are O(1) offset subtractions. The out direction carries,
// parallel to its neighbors, the ID of each edge, which serves FindEdge,
// OutEdges, InEdges, removal and a base's edge table (see Base); the in
// direction carries neighbors only.
//
// A graph always has a CSR, from New on, so CSR never returns nil. Layouts
// (New, Rebase, a Loader's Graph) lay the runs out in tight slabs that are
// the base's own (see Base): the base stores its edges in them, and the CSR
// of every graph on that base reads them. Only a CSR laid out again over a
// private part (for a new label, or by BuildCSR) holds slabs of its own,
// until the next Rebase, which NeedsRebase asks for. From a layout on,
// every structural mutation patches the CSR in place, and readers never
// build one. The slabs are never rewritten; a clone's CSR shares them,
// copying only the overlay and the dirty bitset. The first edge
// added to or removed from a cell (n, l) copies that run into a
// per-direction overlay and sets n's dirty bit; lookups test the bit — one
// load for an untouched node — and return the overlay run when there is
// one. A node added since the base the slabs cover has only overlay cells.
// Once the patches pass a fixed fraction of V+E entries the graph asks for
// a rebase (see NeedsRebase), which lays the slabs out afresh; the CSR stays
// correct, only slower to clone and to read, until then.
//
// A CSR has cells for the labels of the label table as of the layout that
// last widened it. An edge under a label past them re-lays the CSR out over
// the whole table; a label interned with Graph.Label alone, which no edge
// carries, needs no cell, so it costs no layout.
//
// Patching happens inside the graph's mutators, so it needs exactly the
// synchronization they do: a CSR is safe to read for as long as the graph
// itself is.
type CSR struct {
	labels  int
	out, in adjacency
	// slab is the number of nodes the slabs cover: the base's, as of the
	// layout. The cells of later nodes live in the overlay only.
	slab int
	// dirty has one bit per node: set when some cell of the node lives in
	// an overlay, and for every node added since the layout.
	dirty []uint64
	// overlay counts what was patched in since the layout: one per node and
	// per edge added or removed, plus every run copied out of the slabs. It
	// never falls, so it also bounds the graph's private part (a removal
	// leaves a tombstone); NeedsRebase holds once it exceeds limit.
	overlay, limit int
	// base is the base whose slabs the CSR reads; nil for a CSR laid out
	// over a private part too, which holds slabs of its own.
	base *Base
}

// slabs is one direction of a layout.
type slabs struct {
	// off has one entry per slab cell plus one: the run of cell
	// i = n*labels+l is nbr[off[i]:off[i+1]], and the cells of one node are
	// adjacent, so a clean node's degree is off[(n+1)*labels] - off[n*labels].
	off []uint32
	// nbr holds neighbor node IDs in edge-ID order within each run.
	nbr []uint32
	// ids holds, in the out direction only (nil in the in direction), the
	// ID of the edge to each neighbor in nbr, at the same index.
	ids []EdgeID
}

// adjacency is one direction of a CSR: its slabs and its overlay.
type adjacency struct {
	slabs
	// The overlay holds the run of every cell not in the slabs as a span of
	// the arenas onbr (neighbors) and, out direction only, oids (edge IDs).
	// A slab cell patched since the layout has its span at spans[over[i]];
	// a node past the slabs has a tail entry, 0 until a cell of it is
	// touched, then 1 + the index in spans of its block of one span per
	// label, so a graph built edge by edge pays no map probe. It holds no
	// pointer, so the garbage collector never scans it (a map of per-cell
	// slices in its place spent a fifth of an edge-by-edge import in that
	// scan, and took ~1.7× as long), and a clone copies it (see clone), so
	// spans are written in place.
	over  map[uint32]uint32
	spans []span
	tail  []uint32
	onbr  []uint32
	oids  []EdgeID
}

// span is one overlay run: arena entries [off, off+len), with room to grow
// in place up to off+cap.
type span struct{ off, len, cap uint32 }

// run is one cell's run as read: its neighbors and, in the out direction,
// their edge IDs.
type run struct {
	nbr []uint32
	ids []EdgeID
}

// maxCSRCells bounds nodes*labels so that offset tables stay addressable
// and a degenerate graph (millions of nodes × thousands of labels) cannot
// demand a multi-gigabyte offset table. A node or an edge that would take a
// graph's CSR past it is refused with an error (see checkCells).
const maxCSRCells = 1 << 30

// A patched CSR serves without a rebase while its overlay count stays at most
// overlayFloor + (V+E)/overlayFraction, V and E as of the layout. The bound
// keeps the overlays' memory, a clone's copy of them and the share of lookups
// that pay a map probe small, and a rebase (O(V+E)) amortized O(1) per
// patched entry; the floor stops tiny graphs from rebasing every few hundred
// mutations.
const (
	overlayFloor    = 512
	overlayFraction = 8
)

// checkCells returns the error a graph of the given nodes and CSR labels
// gets when that many cells exceed maxCSRCells, nil otherwise.
func checkCells(nodes, labels int) error {
	if nodes*labels > maxCSRCells {
		return fmt.Errorf("graph: %d nodes × %d relationship types exceed the adjacency bound of %d cells", nodes, labels, maxCSRCells)
	}
	return nil
}

// NumNodes returns the node count the CSR covers.
func (c *CSR) NumNodes() int { return c.slab + len(c.out.tail) }

// NumLabels returns the number of labels the CSR has cells for: every label
// some edge carries, and at most the graph's NumLabels.
func (c *CSR) NumLabels() int { return c.labels }

func (c *CSR) isDirty(n NodeID) bool { return c.dirty[n>>6]&(1<<(n&63)) != 0 }

// cell returns the current run of cell i of node n: the overlay's, else the
// slab's; a clean node's without a map probe.
func (c *CSR) cell(a *adjacency, n NodeID, i int) run {
	if !c.isDirty(n) {
		return a.slab(i)
	}
	if t := int(n) - c.slab; t >= 0 {
		if b := a.tail[t]; b != 0 {
			return a.spanned(a.spans[int(b)-1+i-int(n)*c.labels])
		}
		return run{}
	}
	if k, ok := a.over[uint32(i)]; ok {
		return a.spanned(a.spans[k])
	}
	return a.slab(i)
}

// spanned returns the overlay run s.
func (a *adjacency) spanned(s span) run { return runOf(a.onbr, a.oids, s.off, s.off+s.len) }

// slab returns the slab run of cell i.
func (a *adjacency) slab(i int) run { return runOf(a.nbr, a.ids, a.off[i], a.off[i+1]) }

// runOf returns the run of entries [lo, hi) of nbr and, unless nil, ids.
func runOf(nbr []uint32, ids []EdgeID, lo, hi uint32) run {
	r := run{nbr: nbr[lo:hi:hi]}
	if ids != nil {
		r.ids = ids[lo:hi:hi]
	}
	return r
}

// OutNeighbors returns the out-neighbor run of (n, l), l one of the CSR's
// labels (see NumLabels). The slice aliases the CSR's storage and must not
// be modified.
func (c *CSR) OutNeighbors(n NodeID, l Label) []uint32 { return c.neighbors(&c.out, n, l) }

// InNeighbors returns the in-neighbor run of (n, l); see OutNeighbors.
func (c *CSR) InNeighbors(n NodeID, l Label) []uint32 { return c.neighbors(&c.in, n, l) }

func (c *CSR) neighbors(a *adjacency, n NodeID, l Label) []uint32 {
	i := int(n)*c.labels + int(l)
	if c.isDirty(n) {
		return c.cell(a, n, i).nbr
	}
	return a.nbr[a.off[i]:a.off[i+1]]
}

// OutDegree returns the number of live outgoing edges of n: O(1) for a
// clean node, a sum over its label cells for a patched one.
func (c *CSR) OutDegree(n NodeID) int { return c.degree(&c.out, n) }

// InDegree returns the number of live incoming edges of n; see OutDegree.
func (c *CSR) InDegree(n NodeID) int { return c.degree(&c.in, n) }

func (c *CSR) degree(a *adjacency, n NodeID) int {
	lo := int(n) * c.labels
	if !c.isDirty(n) {
		return int(a.off[lo+c.labels] - a.off[lo])
	}
	d := 0
	for i := lo; i < lo+c.labels; i++ {
		d += len(c.cell(a, n, i).nbr)
	}
	return d
}

// edgeID returns the live edge from -l-> to, or InvalidEdge: a scan of one
// out cell. l must be one of the CSR's labels.
func (c *CSR) edgeID(from, to NodeID, l Label) EdgeID {
	r := c.cell(&c.out, from, int(from)*c.labels+int(l))
	if i := slices.Index(r.nbr, uint32(to)); i >= 0 {
		return r.ids[i]
	}
	return InvalidEdge
}

// outRun returns the run of the out cell (n, l): the live edges' targets
// and IDs, in ID order; see OutNeighbors.
func (c *CSR) outRun(n NodeID, l Label) run {
	return c.cell(&c.out, n, int(n)*c.labels+int(l))
}

// own returns the overlay span of cell i of node n, copying a slab cell's
// run out of the slab, with room for grow more entries, on its first
// touch.
func (c *CSR) own(a *adjacency, n NodeID, i, grow int) *span {
	if t := int(n) - c.slab; t >= 0 {
		if a.tail[t] == 0 {
			a.tail[t] = uint32(len(a.spans)) + 1
			a.spans = append(doubled(a.spans, c.labels), make([]span, c.labels)...)
		}
		return &a.spans[int(a.tail[t])-1+i-int(n)*c.labels]
	}
	if k, ok := a.over[uint32(i)]; ok {
		return &a.spans[k]
	}
	r := a.slab(i)
	c.overlay += len(r.nbr) + 1
	c.dirty[n>>6] |= 1 << (n & 63)
	a.over[uint32(i)] = uint32(len(a.spans))
	a.spans = append(doubled(a.spans, 1), a.write(r, grow))
	return &a.spans[len(a.spans)-1]
}

// write copies r to the end of a's arenas, with room for grow more
// entries, and returns its span.
func (a *adjacency) write(r run, grow int) span {
	s := span{off: uint32(len(a.onbr)), len: uint32(len(r.nbr)), cap: uint32(len(r.nbr) + grow)}
	a.onbr = append(append(doubled(a.onbr, int(s.cap)), r.nbr...), make([]uint32, grow)...)
	if a.ids != nil {
		a.oids = append(append(doubled(a.oids, int(s.cap)), r.ids...), make([]EdgeID, grow)...)
	}
	return s
}

// doubled returns s with room for n more elements, at least doubling its
// capacity when it must grow: append grows a large slice by a quarter,
// which copies an arena filled entry by entry several times over.
func doubled[S ~[]E, E any](s S, n int) S {
	if n <= cap(s)-len(s) {
		return s
	}
	return slices.Grow(s, max(n, len(s)))
}

// push appends neighbor v, with edge id in the out direction, to cell i of
// node n.
func (c *CSR) push(a *adjacency, n NodeID, i int, v uint32, id EdgeID) {
	s := c.own(a, n, i, 2)
	r := a.spanned(*s)
	if s.len == s.cap {
		*s = a.write(r, len(r.nbr)+2)
	}
	a.onbr[s.off+s.len] = v
	if a.ids != nil {
		a.oids[s.off+s.len] = id
	}
	s.len++
}

// drop removes neighbor v from cell i of node n.
func (c *CSR) drop(a *adjacency, n NodeID, i int, v uint32) {
	s := c.own(a, n, i, 0)
	r := a.spanned(*s)
	j := slices.Index(r.nbr, v)
	copy(r.nbr[j:], r.nbr[j+1:])
	if r.ids != nil {
		copy(r.ids[j:], r.ids[j+1:])
	}
	s.len--
}

// clone returns a copy of c sharing its slabs, with its own copy of the
// overlay and the dirty bitset.
func (c *CSR) clone() *CSR {
	d := *c
	d.out, d.in = c.out.cloned(), c.in.cloned()
	d.dirty = slices.Clone(c.dirty)
	return &d
}

// cloned returns a with its own copy of the overlay; see clone.
func (a adjacency) cloned() adjacency {
	a.over, a.spans, a.tail = maps.Clone(a.over), slices.Clone(a.spans), slices.Clone(a.tail)
	a.onbr, a.oids = slices.Clone(a.onbr), slices.Clone(a.oids)
	return a
}

// addNode patches in a node with no edges, past the slabs.
func (c *CSR) addNode() {
	n := c.NumNodes()
	c.out.tail, c.in.tail = append(c.out.tail, 0), append(c.in.tail, 0)
	if n>>6 == len(c.dirty) {
		c.dirty = append(c.dirty, 0)
	}
	c.dirty[n>>6] |= 1 << (n & 63)
	c.overlay++
}

// addEdge patches in edge id, from -l-> to, the newest of both its runs.
// The graph must have no live edge from -l-> to.
func (c *CSR) addEdge(from, to NodeID, l Label, id EdgeID) {
	c.push(&c.out, from, int(from)*c.labels+int(l), uint32(to), id)
	c.push(&c.in, to, int(to)*c.labels+int(l), uint32(from), 0)
	c.overlay++
}

// removeEdge patches out the live edge from -l-> to.
func (c *CSR) removeEdge(from, to NodeID, l Label) {
	c.drop(&c.out, from, int(from)*c.labels+int(l), uint32(to))
	c.drop(&c.in, to, int(to)*c.labels+int(l), uint32(from))
	c.overlay++
}

// BuildCSR lays the graph's CSR out afresh over its live edges, with cells
// for the labels the current one has, and returns it. Rebase is what moves a
// graph to a new base; BuildCSR writes nothing else. Like every mutator it
// requires external synchronization with readers.
func (g *Graph) BuildCSR() *CSR { return g.layOut(g.csr.labels) }

// layOut replaces the graph's CSR with one with cells for the first labels
// labels, which must cover every live edge's label and fit maxCSRCells with
// the graph's nodes. A graph that is its base alone, at the base's width,
// gets a CSR over the base's slabs. Any other gets slabs of its own over the
// base's nodes, laid out from the records of every edge (see records); the
// cells of the nodes added since the base go to the overlay.
func (g *Graph) layOut(labels int) *CSR {
	if len(g.nodes) == 0 && len(g.edges) == 0 && len(g.dead) == 0 && labels == g.b.labels {
		g.csr = g.b.csr()
		return g.csr
	}
	v, sv := g.NumNodes(), g.b.numNodes()
	c := newCSR(labels, v, sv, g.live)
	recs, dead := g.records(), g.deadSet()
	c.out.slabs, c.in.slabs = laySlabs(recs, dead, sv, labels, nil)
	if v > sv {
		// The runs of the nodes past the slabs, in edge-ID order.
		for id, e := range recs {
			if inSet(dead, EdgeID(id)) {
				continue
			}
			if int(e.From) >= sv {
				c.push(&c.out, e.From, int(e.From)*labels+int(e.Label), uint32(e.To), EdgeID(id))
			}
			if int(e.To) >= sv {
				c.push(&c.in, e.To, int(e.To)*labels+int(e.Label), uint32(e.From), 0)
			}
		}
	}
	g.csr = c
	return c
}

// newCSR returns a CSR with cells for labels labels over v nodes, the first
// sv of them in slabs not laid out yet, and the overlay bound of a graph of
// v nodes and live edges.
func newCSR(labels, v, sv, live int) *CSR {
	c := &CSR{
		labels: labels,
		slab:   sv,
		out:    adjacency{over: map[uint32]uint32{}, tail: make([]uint32, v-sv)},
		in:     adjacency{over: map[uint32]uint32{}, tail: make([]uint32, v-sv)},
		dirty:  make([]uint64, (v+63)/64),
		limit:  overlayFloor + (v+live)/overlayFraction,
	}
	for n := sv; n < v; n++ {
		c.dirty[n>>6] |= 1 << (n & 63)
	}
	return c
}

// laySlabs lays out the slabs of both directions over the nodes [0, sv), with
// cells for labels labels, from recs, the record of edge id at recs[id],
// skipping the edges in dead and the ends of edges at nodes past sv. Every
// run is in edge-ID order. Unless pos is nil, it sets pos[id] to edge id's
// position in the out slab.
func laySlabs(recs []edgeRec, dead []uint64, sv, labels int, pos []uint32) (out, in slabs) {
	l := labels
	out.off, in.off = make([]uint32, sv*l+1), make([]uint32, sv*l+1)
	// Count pass: run lengths into off[i+1], then prefix-sum to offsets.
	for id, e := range recs {
		if !inSet(dead, EdgeID(id)) {
			if int(e.From) < sv {
				out.off[int(e.From)*l+int(e.Label)+1]++
			}
			if int(e.To) < sv {
				in.off[int(e.To)*l+int(e.Label)+1]++
			}
		}
	}
	for i := 1; i < len(out.off); i++ {
		out.off[i] += out.off[i-1]
		in.off[i] += in.off[i-1]
	}
	out.nbr, out.ids = make([]uint32, out.off[sv*l]), make([]EdgeID, out.off[sv*l])
	in.nbr = make([]uint32, in.off[sv*l])
	// Fill pass in edge-ID order, so that every run is in ID order, with a
	// write cursor per slab run.
	outNext := slices.Clone(out.off[:sv*l])
	inNext := slices.Clone(in.off[:sv*l])
	for id, e := range recs {
		if inSet(dead, EdgeID(id)) {
			continue
		}
		if int(e.From) < sv {
			p := &outNext[int(e.From)*l+int(e.Label)]
			out.nbr[*p], out.ids[*p] = uint32(e.To), EdgeID(id)
			if pos != nil {
				pos[id] = *p
			}
			*p++
		}
		if int(e.To) < sv {
			p := &inNext[int(e.To)*l+int(e.Label)]
			in.nbr[*p] = uint32(e.From)
			*p++
		}
	}
	return out, in
}

// CSR returns the graph's CSR, which mutators keep current; never nil.
func (g *Graph) CSR() *CSR { return g.csr }
