package graph

// This file is a base's edge table (see Base).
//
// A base stores its edges in the CSR slabs it was laid out with: the out
// cell (From, Label) holds each edge's To, and at the same position its ID.
// pos, the one column kept for the edge table alone, maps an ID back to
// that position. An edge's To is read there, and its From and Label are the
// cell holding the position, found by a short binary search of the out
// offsets between two entries of a sampled directory. Passes over every
// edge walk the cells once instead (see records).

// dirShift sets the directory's sampling: one entry per 1<<dirShift out
// positions, so a lookup searches the cells of at most that many edges,
// and the directory costs 4>>dirShift bytes per edge.
const dirShift = 6

// numEdges returns the number of edges in b.
func (b *Base) numEdges() int { return len(b.pos) }

// layOut lays b's slabs out, with cells for labels labels, from recs, the
// record of b's edge id at recs[id], and fills pos and the directory. recs
// is the caller's scratch: b keeps none of it.
func (b *Base) layOut(recs []edgeRec, labels int) {
	b.labels, b.pos = labels, make([]uint32, len(recs))
	b.out, b.in = laySlabs(recs, nil, b.numNodes(), labels, b.pos)
	b.dir = directory(b.out.off, len(recs))
}

// csr returns a CSR over b's slabs with an empty overlay: the CSR of a
// graph that is b alone.
func (b *Base) csr() *CSR {
	n := b.numNodes()
	c := newCSR(b.labels, n, n, b.numEdges())
	c.out.slabs, c.in.slabs, c.base = b.out, b.in, b
	return c
}

// directory returns the cell directory of an out slab of edges entries
// with offsets off: entry k is the last cell i with off[i] <= k<<dirShift,
// and a final entry is the last cell. The cell holding position p is then
// between the entries p>>dirShift and p>>dirShift+1. nil for no edges.
func directory(off []uint32, edges int) []uint32 {
	if edges == 0 {
		return nil
	}
	cells, k := len(off)-1, (edges+1<<dirShift-1)>>dirShift
	dir := make([]uint32, k+1)
	i := 0
	for j := range k {
		for i+1 < cells && off[i+1] <= uint32(j<<dirShift) {
			i++
		}
		dir[j] = uint32(i)
	}
	dir[k] = uint32(cells - 1)
	return dir
}

// edge returns the record of b's edge id: its To read at its out position,
// its From and Label those of the cell holding the position.
func (b *Base) edge(id EdgeID) edgeRec {
	p := b.pos[id]
	i := b.cellAt(p)
	return edgeRec{From: NodeID(i / b.labels), To: NodeID(b.out.nbr[p]), Label: Label(i % b.labels)}
}

// cellAt returns the out cell whose run holds position p: the last cell i
// with off[i] <= p, searched for between two directory entries.
func (b *Base) cellAt(p uint32) int {
	off := b.out.off
	lo, hi := int(b.dir[p>>dirShift]), int(b.dir[p>>dirShift+1])
	for lo < hi { // off[lo] <= p, and the cell is in [lo, hi]
		m := int(uint(lo+hi+1) >> 1)
		if off[m] <= p {
			lo = m
		} else {
			hi = m - 1
		}
	}
	return lo
}

// records returns the record of each of b's edges, edge id at [id], with
// room for extra more: one walk of the out cells. It is scratch for a pass
// over every edge; a base never stores it.
func (b *Base) records(extra int) []edgeRec {
	recs := make([]edgeRec, b.numEdges(), b.numEdges()+extra)
	off, l := b.out.off, b.labels
	for i := range len(off) - 1 {
		if off[i] == off[i+1] {
			continue
		}
		from, label := NodeID(i/l), Label(i%l)
		for p := off[i]; p < off[i+1]; p++ {
			recs[b.out.ids[p]] = edgeRec{From: from, To: NodeID(b.out.nbr[p]), Label: label}
		}
	}
	return recs
}

// records returns the record of every edge of g, removed or not, edge id
// at [id]: the base's (see Base.records), then the private part's.
func (g *Graph) records() []edgeRec {
	return append(g.b.records(len(g.edges)), g.edges...)
}
