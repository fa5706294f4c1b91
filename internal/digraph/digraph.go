// Package digraph provides a minimal unlabeled directed graph used as the
// working representation for the indexing pipeline (line graphs, SCC
// condensations, interval-labeled DAGs). Vertices are dense ints [0, N).
package digraph

import "fmt"

// D is a directed graph over vertices 0..N-1 with adjacency lists.
type D struct {
	n   int
	adj [][]int32
}

// New returns a digraph with n vertices and no edges.
func New(n int) *D {
	return &D{n: n, adj: make([][]int32, n)}
}

// N returns the number of vertices.
func (d *D) N() int { return d.n }

// M returns the number of edges.
func (d *D) M() int {
	m := 0
	for _, a := range d.adj {
		m += len(a)
	}
	return m
}

// AddEdge inserts u -> v. It panics on out-of-range vertices; duplicate edges
// are the caller's responsibility.
func (d *D) AddEdge(u, v int) {
	if u < 0 || u >= d.n || v < 0 || v >= d.n {
		panic(fmt.Sprintf("digraph: edge (%d,%d) out of range [0,%d)", u, v, d.n))
	}
	d.adj[u] = append(d.adj[u], int32(v))
}

// Succ returns the successor list of u. The returned slice must not be
// modified.
func (d *D) Succ(u int) []int32 { return d.adj[u] }

// Reverse returns a new digraph with all edges flipped.
func (d *D) Reverse() *D {
	r := New(d.n)
	for u, succ := range d.adj {
		for _, v := range succ {
			r.AddEdge(int(v), u)
		}
	}
	return r
}

// TopoOrder returns a topological order of the vertices, or an error if the
// graph has a cycle. The order is deterministic (Kahn's algorithm with the
// lowest-numbered ready vertex first).
func (d *D) TopoOrder() ([]int, error) {
	indeg := make([]int, d.n)
	for _, succ := range d.adj {
		for _, v := range succ {
			indeg[v]++
		}
	}
	// A binary-heap-free deterministic Kahn: scan buckets by vertex id.
	ready := make([]int, 0, d.n)
	for v := 0; v < d.n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order := make([]int, 0, d.n)
	for len(ready) > 0 {
		// Pop the smallest ready vertex for determinism.
		minI := 0
		for i := 1; i < len(ready); i++ {
			if ready[i] < ready[minI] {
				minI = i
			}
		}
		v := ready[minI]
		ready[minI] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, v)
		for _, w := range d.adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, int(w))
			}
		}
	}
	if len(order) != d.n {
		return nil, fmt.Errorf("digraph: cycle detected (%d of %d vertices ordered)", len(order), d.n)
	}
	return order, nil
}

// Reachable reports whether target is reachable from src by BFS. It is the
// reference oracle the index structures are tested against.
func (d *D) Reachable(src, target int) bool {
	if src == target {
		return true
	}
	seen := make([]bool, d.n)
	seen[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range d.adj[u] {
			if int(v) == target {
				return true
			}
			if !seen[v] {
				seen[v] = true
				queue = append(queue, int(v))
			}
		}
	}
	return false
}

// ReachableSet returns the set of vertices reachable from src (including
// src) as a boolean slice.
func (d *D) ReachableSet(src int) []bool {
	seen := make([]bool, d.n)
	seen[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range d.adj[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, int(v))
			}
		}
	}
	return seen
}
