package graph

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzCSRAdjacency drives a random add-node/add-edge/remove/clone/rebase
// sequence from the fuzz input over two graphs that diverge from one base,
// and asserts after every operation that each graph's CSR, patched through
// the operations so far, agrees with a scan of its live edge table (see
// checkCSR): OutEdges, InEdges, FindEdge, OutDegree, InDegree, Neighbors and
// every per-(node,label) run, also of a CSR laid out from scratch and of a
// rebased copy; that CSR() is never nil; and that NeedsRebase holds once the
// patches pass the overlay bound. Some nodes carry attributes and edges
// carry weights, zero and not, and
// every live edge's Edge(id).Weight must be the one a model of each graph's
// edges last gave it, and a refused AddWeightedEdge must leave the CSR
// unpatched. It also checksums, around every operation, the bases
// and CSR slabs both graphs read and the whole of the graph the operation
// was not applied to: no operation may write into a base, into slabs or
// into another graph's view of a shared private array. Labels enter the
// stream as operations first use them, some interned alone before any edge
// carries them, and the last seed is long enough to cross the overlay
// bound.
func FuzzCSRAdjacency(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120})
	f.Add([]byte{255, 254, 253, 3, 3, 3, 9, 9, 9, 0, 0, 0, 128, 64, 32})
	long := make([]byte, 1536)
	rand.New(rand.NewSource(1)).Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1536 {
			data = data[:1536]
		}
		labels := []string{"friend", "colleague", "parent", "follows", "blocks", "mentors"}
		first := New()
		gs := [2]*Graph{first, first.Clone()}
		models := [2]map[edgeRec]float64{{}, {}}
		for i := 0; i+2 < len(data); i += 3 {
			op, x, y := data[i], data[i+1], data[i+2]
			// Bit 3 of the op picks the graph it applies to.
			w := int(op>>3) & 1
			g := gs[w]
			var bases [2]*Base
			var slabs [2]*CSR
			var sums [2]uint64
			for j, h := range gs {
				bases[j], slabs[j] = h.b, h.csr
				sums[j] = sharedSum(bases[j], slabs[j])
			}
			other := fingerprint(gs[w^1])
			nodes := g.NumNodes()
			switch op % 8 {
			case 0, 1: // add node (bounded), with attributes on op 1
				if nodes < 48 {
					var attrs Attrs
					if op%8 == 1 {
						attrs = Attrs{"age": Int(int(x))}
					}
					g.MustAddNode(fmt.Sprintf("n%d", nodes), attrs)
				}
			case 6: // remove a live edge
				var live []EdgeID
				g.Edges(func(e Edge) bool { live = append(live, e.ID); return true })
				if len(live) > 0 {
					id := live[int(x)%len(live)]
					delete(models[w], g.rec(id))
					if err := g.RemoveEdge(id); err != nil {
						t.Fatalf("RemoveEdge: %v", err)
					}
				}
			case 7: // clone, and continue on the clone (rebasing first on odd x)
				if x&1 == 1 {
					g.Rebase()
					if g.NeedsRebase() {
						t.Fatal("a graph asks for a rebase right after one")
					}
				}
				gs[w^1] = g.Clone()
				models[w^1] = maps.Clone(models[w])
			default: // add edge, weighted by the op's high bits
				if op%8 == 5 && y < 64 {
					// Intern a label alone: no edge carries it yet.
					g.Label(labels[int(x)%len(labels)])
					break
				}
				if nodes < 2 {
					continue
				}
				from, to := NodeID(int(x)%nodes), NodeID(int(y)%nodes)
				if from == to {
					continue
				}
				weight := float64(op>>4) / 8
				overlay, dirty := g.csr.overlay, slices.Clone(g.csr.dirty)
				if id, err := g.AddWeightedEdge(from, to, labels[int(op)%len(labels)], weight); err == nil {
					models[w][g.rec(id)] = weight
				} else if g.csr.overlay != overlay || !slices.Equal(g.csr.dirty, dirty) {
					t.Fatalf("a refused AddWeightedEdge (%v) patched the CSR", err)
				}
			}
			for j := range gs {
				if sharedSum(bases[j], slabs[j]) != sums[j] {
					t.Fatalf("op %d (%d on graph %d) wrote into the base or slabs graph %d read", i/3, op%8, w, j)
				}
			}
			if op%8 != 7 && fingerprint(gs[w^1]) != other {
				t.Fatalf("op %d (%d on graph %d) changed the other graph", i/3, op%8, w)
			}
			for j, g := range gs {
				checkCSR(t, g)
				checkWeights(t, g, models[j])
			}
		}
	})
}

// checkWeights asserts that g's live edges are exactly model's keys and
// that each reads back model's weight.
func checkWeights(t *testing.T, g *Graph, model map[edgeRec]float64) {
	t.Helper()
	if g.NumEdges() != len(model) {
		t.Fatalf("%d live edges, the model has %d", g.NumEdges(), len(model))
	}
	g.Edges(func(e Edge) bool {
		want, ok := model[edgeRec{From: e.From, To: e.To, Label: e.Label}]
		if got := g.Edge(e.ID).Weight; !ok || got != want || e.Weight != want {
			t.Fatalf("edge %d (%s): weight %v, iterated %v, want %v (modelled %v)", e.ID, g.EdgeString(e), got, e.Weight, want, ok)
		}
		return true
	})
}

// checksum accumulates an FNV-1a hash over integers, each sequence
// delimited by its length.
type checksum struct{ h uint64 }

func (c *checksum) add(vs ...uint32) {
	if c.h == 0 {
		c.h = 14695981039346656037
	}
	for _, v := range vs {
		c.h = (c.h ^ uint64(v)) * 1099511628211
	}
	c.h = (c.h ^ uint64(len(vs))) * 1099511628211
}

// addFloat adds the bits of f.
func (c *checksum) addFloat(f float64) {
	b := math.Float64bits(f)
	c.add(uint32(b), uint32(b>>32))
}

// sharedSum checksums what a graph shares with its clones: its base b —
// member columns, slabs, pos, directory and weights — and the slabs of its
// CSR csr, the base's or its own. Recomputed over the same objects, it
// catches any write into them, whichever graph made it.
func sharedSum(b *Base, csr *CSR) uint64 {
	var c checksum
	for i := range len(b.names) {
		c.add(uint32(b.names[i]))
	}
	c.add(b.off...)
	c.add(b.index...)
	for _, a := range b.attrs {
		c.add(uint32(len(a)))
		for _, k := range a.Keys() {
			v := a[k]
			c.add(uint32(len(k)), uint32(v.Kind()), uint32(len(v.Str())))
			c.addFloat(v.Num())
		}
	}
	c.add(uint32(b.labels))
	slabSum(&c, b.out, b.in)
	c.add(b.pos...)
	c.add(b.dir...)
	for _, w := range b.weights {
		c.addFloat(w)
	}
	slabSum(&c, csr.out.slabs, csr.in.slabs)
	return c.h
}

// slabSum adds a layout's out and in slabs to c.
func slabSum(c *checksum, out, in slabs) {
	c.add(out.off...)
	c.add(out.nbr...)
	for _, id := range out.ids {
		c.add(uint32(id))
	}
	c.add(in.off...)
	c.add(in.nbr...)
}

// fingerprint checksums everything a reader of g can observe: nodes, live
// edges, every node's edges in and out, and every CSR run.
func fingerprint(g *Graph) uint64 {
	var c checksum
	c.add(uint32(g.NumNodes()), uint32(g.NumEdges()), uint32(g.Version()))
	g.Edges(func(e Edge) bool {
		c.add(uint32(e.ID), uint32(e.From), uint32(e.To), uint32(e.Label))
		c.addFloat(e.Weight)
		return true
	})
	csr := g.CSR()
	for n := NodeID(0); int(n) < g.NumNodes(); n++ {
		for _, each := range []func(NodeID, func(Edge) bool){g.OutEdges, g.InEdges} {
			each(n, func(e Edge) bool { c.add(uint32(e.ID)); return true })
		}
		for l := Label(0); int(l) < csr.labels; l++ {
			c.add(csr.OutNeighbors(n, l)...)
			c.add(csr.InNeighbors(n, l)...)
		}
	}
	return c.h
}
