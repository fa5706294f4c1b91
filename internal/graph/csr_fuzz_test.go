package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// FuzzCSRAdjacency drives a random add-node/add-edge/remove/compact sequence
// from the fuzz input and asserts after every operation that the graph's CSR,
// patched through the operations so far, agrees with a CSR built from scratch
// on a clone and with the OutEdges/InEdges iteration: identical
// per-(node,label) runs in identical order, identical degrees. Labels enter
// the stream as operations first use them, and the last seed is long enough
// to cross the overlay bound several times.
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
		g := New()
		labels := []string{"friend", "colleague", "parent", "follows"}
		var liveEdges []EdgeID
		nodeCount := 0
		for i := 0; i+2 < len(data); i += 3 {
			op, x, y := data[i], data[i+1], data[i+2]
			switch op % 8 {
			case 0, 1: // add node (bounded)
				if nodeCount < 48 {
					g.MustAddNode(fmt.Sprintf("n%d", nodeCount), nil)
					nodeCount++
				}
			case 6: // remove a live edge
				if len(liveEdges) > 0 {
					j := int(x) % len(liveEdges)
					id := liveEdges[j]
					if g.EdgeAlive(id) {
						if err := g.RemoveEdge(id); err != nil {
							t.Fatalf("RemoveEdge(%d): %v", id, err)
						}
					}
					liveEdges = append(liveEdges[:j], liveEdges[j+1:]...)
				}
			case 7: // compact tombstones (renumbers every EdgeID)
				g.CompactTombstones()
				liveEdges = liveEdges[:0]
				g.Edges(func(e Edge) bool {
					liveEdges = append(liveEdges, e.ID)
					return true
				})
			default: // add edge
				if nodeCount < 2 {
					continue
				}
				from := NodeID(int(x) % nodeCount)
				to := NodeID(int(y) % nodeCount)
				if from == to {
					continue
				}
				if id, err := g.AddEdge(from, to, labels[int(op)%len(labels)]); err == nil {
					liveEdges = append(liveEdges, id)
				}
			}
			checkCSRAgainstLegacy(t, g)
		}
	})
}
