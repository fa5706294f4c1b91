package graph

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"strings"
)

// This file is a base's member table (see Base).
//
// The name index is open addressing with linear probing over a power of
// two of at least 2n slots, each holding 1 + a node ID, 0 for an empty
// slot. It holds no pointer, so the garbage collector never scans it, and a
// name costs 8 to 16 bytes of it against a map entry's string header, ID
// and share of the map's slack. Names hash under a seed drawn per process:
// the index is never persisted, and node order, which is, does not depend
// on it.

// maxNameBytes bounds the bytes of a base's names, so that their offsets
// fit a uint32. A node whose name would take a graph past it is refused
// with an error (see checkNameBytes).
const maxNameBytes = math.MaxUint32

// nameSeed seeds the name hash of every index this process builds.
var nameSeed = maphash.MakeSeed()

// checkNameBytes returns the error a graph gets whose names would total n
// bytes past maxNameBytes, nil otherwise.
func checkNameBytes(n int) error {
	if n > maxNameBytes {
		return fmt.Errorf("graph: member names of %d bytes exceed the bound of %d bytes", n, maxNameBytes)
	}
	return nil
}

// numNodes returns the number of nodes in b.
func (b *Base) numNodes() int { return max(len(b.off)-1, 0) }

// node assembles the record of node id of b.
func (b *Base) node(id NodeID) Node {
	n := Node{ID: id, Name: b.names[b.off[id]:b.off[id+1]]}
	if b.attrs != nil {
		n.Attrs = b.attrs[id]
	}
	return n
}

// lookup resolves a name to the node of b it names.
func (b *Base) lookup(name string) (NodeID, bool) {
	index, off, names := b.index, b.off, b.names
	if len(index) == 0 {
		return InvalidNode, false
	}
	mask := uint64(len(index) - 1)
	for i := maphash.String(nameSeed, name) & mask; ; i = (i + 1) & mask {
		slot := index[i]
		if slot == 0 {
			return InvalidNode, false
		}
		if id := slot - 1; names[off[id]:off[id+1]] == name {
			return NodeID(id), true
		}
	}
}

// buildIndex returns the name index of the nodes named by names and off,
// filling it in ID order. If some name repeats an earlier one, it returns
// instead the first node whose name does, as AddNode would reject it;
// InvalidNode otherwise.
func buildIndex(names string, off []uint32) ([]uint32, NodeID) {
	n := max(len(off)-1, 0)
	if n == 0 {
		return nil, InvalidNode
	}
	index := make([]uint32, 1<<bits.Len(uint(2*n-1)))
	mask := uint64(len(index) - 1)
	for id := range n {
		name := names[off[id]:off[id+1]]
		i := maphash.String(nameSeed, name) & mask
		for ; index[i] != 0; i = (i + 1) & mask {
			if o := index[i] - 1; names[off[o]:off[o+1]] == name {
				return nil, NodeID(id)
			}
		}
		index[i] = uint32(id) + 1
	}
	return index, InvalidNode
}

// withNodes returns b's member table with nodes, the next IDs after b's,
// appended: the names copied into one string with their offsets, the
// attribute column, allocated if some node of either has attributes, and a
// fresh index.
func (b *Base) withNodes(nodes []Node) (names string, off []uint32, attrs []Attrs, index []uint32) {
	var sb strings.Builder
	size := len(b.names)
	for _, n := range nodes {
		size += len(n.Name)
	}
	sb.Grow(size)
	sb.WriteString(b.names)
	nb := b.numNodes()
	off = make([]uint32, nb+len(nodes)+1)
	copy(off, b.off)
	attrs = b.attrs
	if attrs != nil {
		attrs = append(make([]Attrs, 0, nb+len(nodes)), attrs...)
	}
	for i, n := range nodes {
		sb.WriteString(n.Name)
		off[nb+i+1] = uint32(sb.Len())
		attrs = withAttrs(attrs, nb+i, nb+len(nodes), n.Attrs)
	}
	names = sb.String()
	index, _ = buildIndex(names, off) // AddNode let no name repeat
	return names, off, attrs, index
}

// withAttrs appends a to the attribute column of a table that held n nodes
// before the one a belongs to, allocating the column, nil for those n and
// with room for size nodes, at the first non-nil a.
func withAttrs(attrs []Attrs, n, size int, a Attrs) []Attrs {
	if attrs == nil {
		if a == nil {
			return nil
		}
		attrs = make([]Attrs, n, max(size, n+1))
	}
	return append(attrs, a)
}
