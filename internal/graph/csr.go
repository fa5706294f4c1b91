package graph

import "slices"

// CSR is a compressed-sparse-row view of the graph's live adjacency,
// label-partitioned: for every (node, label) pair the out- and in-neighbors
// form one contiguous []uint32 run. It is the read-hot-path memory layout —
// a BFS constrained to one relationship type touches exactly the run it
// needs (no per-edge label filtering, no pointer chasing through edge
// records), and per-node degrees are O(1) offset subtractions.
//
// The CSR travels with its graph: BuildCSR (or Rebase, over the new base)
// lays the runs out in tight slabs, and from then on every structural
// mutation of the graph patches the cached CSR and stamps it with the new
// version, so it stays fresh (and the same *CSR) across mutations. The slabs
// are never rewritten; a clone's CSR shares them, copying only the overlay
// and the dirty bitset.
// The first edge added to or removed from a cell (n, l) copies that run into
// a small per-direction overlay map and sets n's dirty bit; lookups test the
// bit — one load for an untouched node — and return the overlay run when
// there is one. A node added after the build has no slab cells, only overlay
// ones. Once the patches pass a fixed fraction of V+E entries, or the label
// table grows (which changes the cell layout), the graph drops the CSR and
// the next CSR call builds a new one (a network rebases instead; see
// NeedsRebase).
//
// Patching happens inside the graph's mutators, so it needs exactly the
// synchronization they do: a CSR is safe to read for as long as the graph
// itself is. It deliberately carries neighbor node IDs only (no edge IDs or
// weights), which is all the reachability hot path needs. Witness
// reconstruction and other edge-identity consumers keep using the edge-list
// iteration.
type CSR struct {
	version uint64
	nodes   int
	labels  int
	out, in adjacency
	// dirty has one bit per node: set when some cell of the node lives in
	// an overlay, and for every node added since the build.
	dirty []uint64
	// overlay counts what was patched in since the build: one per node and
	// per edge added or removed, plus every run copied out of the slabs. It
	// never falls, so it also bounds the graph's private part (a removal
	// leaves a tombstone); restamp drops the CSR once it exceeds limit.
	overlay, limit int
	// base is the base Rebase laid the slabs over; nil for a CSR that
	// BuildCSR laid over a private part too.
	base *Base
}

// adjacency is one direction of a CSR.
type adjacency struct {
	// off has one entry per slab cell plus one: the run of cell
	// i = n*labels+l is nbr[off[i]:off[i+1]], and the cells of one node are
	// adjacent, so a clean node's degree is off[(n+1)*labels] - off[n*labels].
	off []uint32
	// nbr holds neighbor node IDs in edge-insertion order within each run
	// (matching OutEdges/InEdges order filtered to one label).
	nbr []uint32
	// over holds, by cell index, the current run of every cell patched
	// since the build, in the same order. Runs follow the graph's private
	// slices' rule: appended to by their unclipped holder only, never
	// written in place.
	over map[uint32][]uint32
}

// maxCSRCells bounds nodes*labels so that offset tables stay addressable
// and a degenerate graph (millions of nodes × thousands of labels) cannot
// demand a multi-gigabyte offset table. Beyond it BuildCSR returns nil and
// callers fall back to edge-list iteration.
const maxCSRCells = 1 << 30

// A patched CSR is kept while its overlay count stays at most overlayFloor +
// (V+E)/overlayFraction, V and E as of the build. The bound keeps the
// overlays' memory, a clone's copy of them and the share of lookups that pay
// a map probe small, and a rebuild (O(V+E)) amortized O(1) per patched
// entry; the floor stops tiny graphs from rebuilding every few hundred
// mutations.
const (
	overlayFloor    = 512
	overlayFraction = 8
)

// Version returns the graph version the CSR reflects.
func (c *CSR) Version() uint64 { return c.version }

// NumNodes returns the node count the CSR covers.
func (c *CSR) NumNodes() int { return c.nodes }

func (c *CSR) isDirty(n NodeID) bool { return c.dirty[n>>6]&(1<<(n&63)) != 0 }

// run returns the current run of a cell of a dirty node.
func (a *adjacency) run(cell int) []uint32 {
	if r, ok := a.over[uint32(cell)]; ok {
		return r
	}
	if cell+1 >= len(a.off) {
		return nil
	}
	return a.nbr[a.off[cell]:a.off[cell+1]]
}

// OutNeighbors returns the out-neighbor run of (n, l). The slice aliases the
// CSR's storage and must not be modified.
func (c *CSR) OutNeighbors(n NodeID, l Label) []uint32 { return c.neighbors(&c.out, n, l) }

// InNeighbors returns the in-neighbor run of (n, l); see OutNeighbors.
func (c *CSR) InNeighbors(n NodeID, l Label) []uint32 { return c.neighbors(&c.in, n, l) }

func (c *CSR) neighbors(a *adjacency, n NodeID, l Label) []uint32 {
	i := int(n)*c.labels + int(l)
	if c.isDirty(n) {
		return a.run(i)
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
		d += len(a.run(i))
	}
	return d
}

// own returns the overlay run of cell, which belongs to node n, copying it
// out of the slab on first touch.
func (c *CSR) own(a *adjacency, n NodeID, cell int) []uint32 {
	r, ok := a.over[uint32(cell)]
	if !ok {
		base := a.run(cell)
		r = append(make([]uint32, 0, len(base)+1), base...)
		c.overlay += len(base) + 1
		c.dirty[n>>6] |= 1 << (n & 63)
	}
	return r
}

// clone returns a copy of c sharing its slabs, with its own overlay maps
// (every run clipped, so that neither copy appends into the other's) and
// dirty bitset.
func (c *CSR) clone() *CSR {
	d := *c
	d.out.over, d.in.over = clipped(c.out.over), clipped(c.in.over)
	d.dirty = slices.Clone(c.dirty)
	return &d
}

// addNode patches in a node with no edges.
func (c *CSR) addNode() {
	n := c.nodes
	c.nodes++
	if n>>6 == len(c.dirty) {
		c.dirty = append(c.dirty, 0)
	}
	c.dirty[n>>6] |= 1 << (n & 63)
	c.overlay++
}

// addEdge patches in the edge from -l-> to, the newest of both its runs.
func (c *CSR) addEdge(from, to NodeID, l Label) {
	oc, ic := int(from)*c.labels+int(l), int(to)*c.labels+int(l)
	c.out.over[uint32(oc)] = append(c.own(&c.out, from, oc), uint32(to))
	c.in.over[uint32(ic)] = append(c.own(&c.in, to, ic), uint32(from))
	c.overlay++
}

// removeEdge patches out the live edge from -l-> to.
func (c *CSR) removeEdge(from, to NodeID, l Label) {
	oc, ic := int(from)*c.labels+int(l), int(to)*c.labels+int(l)
	c.out.over[uint32(oc)] = without(c.own(&c.out, from, oc), uint32(to))
	c.in.over[uint32(ic)] = without(c.own(&c.in, to, ic), uint32(from))
	c.overlay++
}

// without returns r less its one occurrence of v, in a new run.
func without(r []uint32, v uint32) []uint32 {
	i := slices.Index(r, v)
	return append(r[:i:i], r[i+1:]...)
}

// restamp marks c fresh at the graph's current version, after the mutator
// calling it has patched into c the mutation that produced that version. A
// CSR whose overlays have outgrown their bound (or whose cells, after node
// additions, exceed maxCSRCells) is dropped instead.
func (g *Graph) restamp(c *CSR) {
	if c.overlay > c.limit || c.nodes*c.labels > maxCSRCells {
		g.csr.Store(nil)
		return
	}
	c.version = g.version.Load()
}

// BuildCSR constructs a fresh CSR over the graph's live edges and caches it
// as the graph's current CSR. It returns nil when the graph has no labels
// yet (no edges can exist either) or when nodes*labels exceeds maxCSRCells.
// It writes nothing but the cache: Rebase is what moves a graph to a new
// base. Like every bulk accessor it requires external synchronization with
// mutators; concurrent readers may race to build — both produce identical
// views and the cache keeps one.
func (g *Graph) BuildCSR() *CSR {
	v, l := g.NumNodes(), g.labels.len()
	if l == 0 || v == 0 || v*l > maxCSRCells {
		return nil
	}
	c := &CSR{
		version: g.version.Load(),
		nodes:   v,
		labels:  l,
		out:     adjacency{off: make([]uint32, v*l+1), nbr: make([]uint32, g.live), over: map[uint32][]uint32{}},
		in:      adjacency{off: make([]uint32, v*l+1), nbr: make([]uint32, g.live), over: map[uint32][]uint32{}},
		dirty:   make([]uint64, (v+63)/64),
		limit:   overlayFloor + (v+g.live)/overlayFraction,
	}
	outOff, inOff := c.out.off, c.in.off
	segs, dead := [...][]edgeRec{g.b.edges, g.edges}, g.deadSet()
	// Count pass: run lengths into off[i+1], then prefix-sum to offsets.
	for si, seg := range segs {
		first := EdgeID(si * len(g.b.edges)) // the ID of seg[0]
		for i := range seg {
			e := &seg[i]
			if inSet(dead, first+EdgeID(i)) {
				continue
			}
			outOff[int(e.From)*l+int(e.Label)+1]++
			inOff[int(e.To)*l+int(e.Label)+1]++
		}
	}
	for i := 1; i < len(outOff); i++ {
		outOff[i] += outOff[i-1]
		inOff[i] += inOff[i-1]
	}
	// Fill pass in edge-ID order, preserving insertion order within runs,
	// with a write cursor per run.
	outNext := slices.Clone(outOff[:v*l])
	inNext := slices.Clone(inOff[:v*l])
	for si, seg := range segs {
		first := EdgeID(si * len(g.b.edges)) // the ID of seg[0]
		for i := range seg {
			e := &seg[i]
			if inSet(dead, first+EdgeID(i)) {
				continue
			}
			oi := int(e.From)*l + int(e.Label)
			c.out.nbr[outNext[oi]] = uint32(e.To)
			outNext[oi]++
			ii := int(e.To)*l + int(e.Label)
			c.in.nbr[inNext[ii]] = uint32(e.From)
			inNext[ii]++
		}
	}
	g.csr.Store(c)
	return c
}

// CSR returns the graph's CSR, building one if none is cached or the cached
// one was not carried to the current version (see FreshCSR). It returns nil
// for label-free graphs and pathological node×label products (see BuildCSR).
func (g *Graph) CSR() *CSR {
	if c := g.FreshCSR(); c != nil {
		return c
	}
	return g.BuildCSR()
}

// FreshCSR returns the cached CSR if it reflects the graph's current version
// and label table, and nil otherwise — it never pays a build. Mutators keep
// a cached CSR fresh by patching it, so nil means the graph was never
// indexed, or dropped its CSR: the overlay bound was crossed, or the label
// table has grown since the build.
func (g *Graph) FreshCSR() *CSR {
	if c := g.csr.Load(); c != nil && c.version == g.version.Load() && c.labels == g.labels.len() {
		return c
	}
	return nil
}
