// Package twohop computes 2-hop reachability covers (Definitions 5 and 6 of
// the paper): every vertex v receives labels Lin(v), Lout(v) ⊆ V such that
//
//	u ⇝ v   iff   Lout(u) ∩ Lin(v) ≠ ∅        (u ≠ v; u ⇝ u trivially)
//
// Two constructions are provided:
//
//   - Greedy: the set-cover-style greedy of Cohen et al. that Cheng et al.'s
//     MaxCardinality algorithm approximates — each round picks the center
//     whose ancestor×descendant rectangle covers the most uncovered
//     reachable pairs. It materializes the transitive closure, so it is
//     reserved for small graphs (the paper's worked example, tests).
//
//   - Pruned: pruned landmark labeling, a scalable 2-hop construction that
//     processes vertices in decreasing-degree order and runs pruned forward
//     and backward BFS from each. It preserves exactly the Definition-6
//     cover property and replaces the inner MaxCardinality machinery the
//     paper treats as a black box.
//
// Centers are identified by *rank* (selection/processing order); label
// slices are sorted by rank so queries are sorted-list intersections.
package twohop

import (
	"fmt"
	"sort"

	"reachac/internal/digraph"
)

// Cover is a 2-hop reachability labeling.
type Cover struct {
	n int
	// in[v] and out[v] hold center ranks in ascending order.
	in, out [][]int32
	// rankToVertex maps a center rank to the vertex acting as that center.
	rankToVertex []int32
}

// N returns the number of labeled vertices.
func (c *Cover) N() int { return c.n }

// NumCenters returns how many distinct centers the cover uses.
func (c *Cover) NumCenters() int { return len(c.rankToVertex) }

// CenterVertex returns the vertex serving as the center with the given rank.
func (c *Cover) CenterVertex(rank int32) int { return int(c.rankToVertex[rank]) }

// InLabel returns Lin(v) as center ranks (ascending). Do not modify.
func (c *Cover) InLabel(v int) []int32 { return c.in[v] }

// OutLabel returns Lout(v) as center ranks (ascending). Do not modify.
func (c *Cover) OutLabel(v int) []int32 { return c.out[v] }

// Size is the labeling size Σ_v |Lin(v)| + |Lout(v)|.
func (c *Cover) Size() int {
	s := 0
	for v := 0; v < c.n; v++ {
		s += len(c.in[v]) + len(c.out[v])
	}
	return s
}

// AddVertex grows the cover by one isolated vertex, registering it as a new
// lowest-priority center whose labels initially witness only its self-pair
// (Lin = Lout = {its own rank}), and returns the vertex id. Edges incident
// to the new vertex are then integrated with Insert, whose resumed BFS uses
// the new rank like any other; the Definition 6 cover property is preserved
// at every step.
func (c *Cover) AddVertex() int {
	v := c.n
	c.n++
	r := int32(len(c.rankToVertex))
	c.rankToVertex = append(c.rankToVertex, int32(v))
	c.in = append(c.in, []int32{r})
	c.out = append(c.out, []int32{r})
	return v
}

// Reachable reports u ⇝ v via label intersection.
func (c *Cover) Reachable(u, v int) bool {
	if u == v {
		return true
	}
	a, b := c.out[u], c.in[v]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// intersects reports whether two ascending rank slices share an element.
func intersects(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// GreedyLimit is the largest graph Greedy accepts; beyond it the quartic
// greedy is unreasonable and Pruned should be used.
const GreedyLimit = 256

// Greedy computes a 2-hop cover by greedy rectangle covering over the full
// transitive closure. It fails on graphs larger than GreedyLimit vertices.
func Greedy(d *digraph.D) (*Cover, error) {
	n := d.N()
	if n > GreedyLimit {
		return nil, fmt.Errorf("twohop: graph with %d vertices exceeds greedy limit %d", n, GreedyLimit)
	}
	// reach[u] = descendants of u including u itself; self-pairs (u,u) are
	// covered too so that every vertex is witnessed by some center — the
	// cluster join machinery needs Lout(u) ∩ Lin(v) ≠ ∅ even when u and v
	// collapse to the same condensation vertex.
	reach := make([][]bool, n)
	var uncovered int
	for u := 0; u < n; u++ {
		set := d.ReachableSet(u)
		reach[u] = set
		for v := 0; v < n; v++ {
			if set[v] {
				uncovered++
			}
		}
	}
	coReach := make([][]bool, n)
	rev := d.Reverse()
	for v := 0; v < n; v++ {
		coReach[v] = rev.ReachableSet(v)
	}

	covered := make([][]bool, n)
	for u := 0; u < n; u++ {
		covered[u] = make([]bool, n)
	}

	c := &Cover{n: n, in: make([][]int32, n), out: make([][]int32, n)}
	for uncovered > 0 {
		// Pick the center whose rectangle covers the most uncovered pairs.
		bestW, bestGain := -1, 0
		var bestU, bestV []int32
		for w := 0; w < n; w++ {
			// Candidate cluster members: ancestors/descendants of w plus w
			// itself, restricted to those participating in an uncovered pair
			// through w.
			var us, vs []int32
			for u := 0; u < n; u++ {
				if coReach[w][u] {
					us = append(us, int32(u))
				}
			}
			for v := 0; v < n; v++ {
				if reach[w][v] {
					vs = append(vs, int32(v))
				}
			}
			gain := 0
			for _, u := range us {
				for _, v := range vs {
					if reach[u][v] && !covered[u][v] {
						gain++
					}
				}
			}
			if gain > bestGain {
				bestGain, bestW = gain, w
				bestU, bestV = us, vs
			}
		}
		if bestW < 0 {
			return nil, fmt.Errorf("twohop: greedy stalled with %d uncovered pairs", uncovered)
		}
		// Trim cluster members that contribute no uncovered pair (keeps
		// labels small, mirroring MaxCardinality's cluster selection).
		us := trimU(bestU, bestV, reach, covered)
		vs := trimV(bestU, bestV, reach, covered)
		rank := int32(len(c.rankToVertex))
		c.rankToVertex = append(c.rankToVertex, int32(bestW))
		for _, u := range us {
			c.out[u] = append(c.out[u], rank)
		}
		for _, v := range vs {
			c.in[v] = append(c.in[v], rank)
		}
		for _, u := range us {
			for _, v := range vs {
				if reach[u][v] && !covered[u][v] {
					covered[u][v] = true
					uncovered--
				}
			}
		}
	}
	return c, nil
}

func trimU(us, vs []int32, reach, covered [][]bool) []int32 {
	var out []int32
	for _, u := range us {
		keep := false
		for _, v := range vs {
			if reach[u][v] && !covered[u][v] {
				keep = true
				break
			}
		}
		if keep {
			out = append(out, u)
		}
	}
	return out
}

func trimV(us, vs []int32, reach, covered [][]bool) []int32 {
	var out []int32
	for _, v := range vs {
		keep := false
		for _, u := range us {
			if reach[u][v] && !covered[u][v] {
				keep = true
				break
			}
		}
		if keep {
			out = append(out, v)
		}
	}
	return out
}

// Pruned computes a 2-hop cover by pruned landmark labeling: vertices are
// processed in decreasing total-degree order (ties by id); each round runs a
// pruned forward BFS (labeling Lin of reached vertices) and a pruned
// backward BFS (labeling Lout). Works on arbitrary digraphs, including ones
// with cycles.
func Pruned(d *digraph.D) *Cover {
	n := d.N()
	c := &Cover{n: n, in: make([][]int32, n), out: make([][]int32, n)}
	rev := d.Reverse()

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = len(d.Succ(v)) + len(rev.Succ(v))
	}
	sort.Slice(order, func(i, j int) bool {
		if deg[order[i]] != deg[order[j]] {
			return deg[order[i]] > deg[order[j]]
		}
		return order[i] < order[j]
	})

	visited := make([]int32, n) // round stamp, avoids clearing
	for i := range visited {
		visited[i] = -1
	}

	queue := make([]int32, 0, n)
	for rank32, root := int32(0), 0; int(rank32) < n; rank32++ {
		root = order[rank32]
		c.rankToVertex = append(c.rankToVertex, int32(root))

		// Forward: add rank to Lin of every vertex root reaches (incl. root)
		// unless existing labels already witness root ⇝ u.
		queue = append(queue[:0], int32(root))
		visited[root] = 2 * rank32
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if int(u) != root && intersects(c.out[root], c.in[u]) {
				continue // already covered; prune this branch
			}
			c.in[u] = append(c.in[u], rank32)
			for _, w := range d.Succ(int(u)) {
				if visited[w] != 2*rank32 {
					visited[w] = 2 * rank32
					queue = append(queue, w)
				}
			}
		}
		// Backward: add rank to Lout of every vertex reaching root.
		queue = append(queue[:0], int32(root))
		visited[root] = 2*rank32 + 1
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if int(u) != root && intersects(c.out[u], c.in[root]) {
				continue
			}
			c.out[u] = append(c.out[u], rank32)
			for _, w := range rev.Succ(int(u)) {
				if visited[w] != 2*rank32+1 {
					visited[w] = 2*rank32 + 1
					queue = append(queue, w)
				}
			}
		}
	}
	return c
}
