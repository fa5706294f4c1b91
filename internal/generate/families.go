package generate

import (
	"math/rand"
	"slices"

	"reachac/internal/graph"
)

// edgeKey identifies a directed typed edge for the global duplicate
// suppression of the er and osn families, whose edges out of one node are
// not emitted together. Streams must be dup-free (the Topology contract),
// so each family re-implements the duplicate check graph.AddEdge used to
// perform.
type edgeKey struct {
	from, to graph.NodeID
	label    string
}

// halfEdges holds the (target, label index) pairs already emitted out of
// one source. Families that emit every edge out of a node during that
// node's turn (ldbc, ba, ws) suppress duplicates per source with it: reset
// to length zero per source and scanned linearly, since out-degrees are
// small and a scan of a few pairs is cheaper than clearing and hashing a
// map.
type halfEdges []halfEdge

type halfEdge struct {
	to    graph.NodeID
	label int
}

// add records (to, label) and reports whether the pair was new.
func (s *halfEdges) add(to graph.NodeID, label int) bool {
	h := halfEdge{to, label}
	if slices.Contains(*s, h) {
		return false
	}
	*s = append(*s, h)
	return true
}

func emitNodes(n int, emit func(Op) error) error {
	for i := 0; i < n; i++ {
		if err := emit(Op{Kind: OpNode, Name: UserName(i)}); err != nil {
			return err
		}
	}
	return nil
}

// --- Erdős–Rényi -----------------------------------------------------

type erTopology struct{ cfg config }

func (t *erTopology) Kind() string { return "er" }
func (t *erTopology) Nodes() int   { return t.cfg.nodes }
func (t *erTopology) Seed() int64  { return t.cfg.seed }

func (t *erTopology) Stream(emit func(Op) error) error {
	c := t.cfg
	rng := rand.New(rand.NewSource(c.seed))
	if err := emitNodes(c.nodes, emit); err != nil {
		return err
	}
	seen := make(map[edgeKey]struct{}, c.edges)
	for added := 0; added < c.edges; {
		u := graph.NodeID(rng.Intn(c.nodes))
		v := graph.NodeID(rng.Intn(c.nodes))
		if u == v {
			continue
		}
		label := c.labels[rng.Intn(len(c.labels))]
		key := edgeKey{u, v, label}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		if err := emit(Op{Kind: OpEdge, From: u, To: v, Label: label}); err != nil {
			return err
		}
		added++
	}
	return nil
}

// --- Barabási–Albert -------------------------------------------------

type baTopology struct{ cfg config }

func (t *baTopology) Kind() string { return "ba" }
func (t *baTopology) Nodes() int   { return t.cfg.nodes }
func (t *baTopology) Seed() int64  { return t.cfg.seed }

func (t *baTopology) Stream(emit func(Op) error) error {
	c := t.cfg
	rng := rand.New(rand.NewSource(c.seed))
	if err := emitNodes(c.nodes, emit); err != nil {
		return err
	}
	// targets repeats each vertex once per incident edge end, implementing
	// degree-proportional sampling. Edges out of v are all placed in v's
	// iteration, so duplicate suppression is per source.
	targets := []graph.NodeID{0}
	seen := make(halfEdges, 0, c.degree)
	for v := 1; v < c.nodes; v++ {
		links := c.degree
		if v < links {
			links = v
		}
		seen = seen[:0]
		for e := 0; e < links; e++ {
			u := targets[rng.Intn(len(targets))]
			if u == graph.NodeID(v) {
				continue
			}
			label := rng.Intn(len(c.labels))
			if !seen.add(u, label) {
				continue
			}
			if err := emit(Op{Kind: OpEdge, From: graph.NodeID(v), To: u, Label: c.labels[label]}); err != nil {
				return err
			}
			targets = append(targets, u)
		}
		targets = append(targets, graph.NodeID(v))
	}
	return nil
}

// --- Watts–Strogatz --------------------------------------------------

type wsTopology struct{ cfg config }

func (t *wsTopology) Kind() string { return "ws" }
func (t *wsTopology) Nodes() int   { return t.cfg.nodes }
func (t *wsTopology) Seed() int64  { return t.cfg.seed }

func (t *wsTopology) Stream(emit func(Op) error) error {
	c := t.cfg
	rng := rand.New(rand.NewSource(c.seed))
	if err := emitNodes(c.nodes, emit); err != nil {
		return err
	}
	seen := make(halfEdges, 0, c.degree)
	for v := 0; v < c.nodes; v++ {
		seen = seen[:0]
		for j := 1; j <= c.degree; j++ {
			to := graph.NodeID((v + j) % c.nodes)
			if rng.Float64() < c.beta {
				to = graph.NodeID(rng.Intn(c.nodes))
			}
			if to == graph.NodeID(v) {
				continue
			}
			label := rng.Intn(len(c.labels))
			if !seen.add(to, label) {
				continue
			}
			if err := emit(Op{Kind: OpEdge, From: graph.NodeID(v), To: to, Label: c.labels[label]}); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- OSN -------------------------------------------------------------

var cities = []string{"paris", "berlin", "tunis", "london", "rome", "madrid", "lyon", "oslo"}

// osnTopology is the community-structured social generator. Its stream
// reproduces the draw sequence of the materializing OSN() constructor it
// replaced exactly — same rng, same draw order, with a global seen-set
// standing in for the duplicate rejection graph.AddEdge used to do — so
// its output is byte-identical to pre-streaming output for every seed
// (TestOSNByteIdentical pins it). The preferential pools and
// the seen-set make its working memory O(nodes + edges); the ldbc family
// is the bounded-memory choice for very large streams.
type osnTopology struct{ cfg config }

func (t *osnTopology) Kind() string { return "osn" }
func (t *osnTopology) Nodes() int   { return t.cfg.nodes }
func (t *osnTopology) Seed() int64  { return t.cfg.seed }

func (t *osnTopology) Stream(emit func(Op) error) error {
	c := t.cfg
	rng := rand.New(rand.NewSource(c.seed))

	labels, cum, total := sortedWeightTable(c.labelWeights)
	pickLabel := func() string {
		x := rng.Float64() * total
		for i, w := range cum {
			if x < w {
				return labels[i]
			}
		}
		return labels[len(labels)-1]
	}

	community := make([]int, c.nodes)
	members := make([][]graph.NodeID, c.communities)
	for i := 0; i < c.nodes; i++ {
		cm := i % c.communities
		community[i] = cm
		var attrs graph.Attrs
		if c.withAttrs {
			attrs = graph.Attrs{
				"age":    graph.Int(13 + rng.Intn(68)),
				"city":   graph.String(cities[rng.Intn(len(cities))]),
				"gender": graph.String([]string{"female", "male"}[rng.Intn(2)]),
			}
		}
		if err := emit(Op{Kind: OpNode, Name: UserName(i), Attrs: attrs}); err != nil {
			return err
		}
		members[cm] = append(members[cm], graph.NodeID(i))
	}

	// Per-community preferential target pools.
	pools := make([][]graph.NodeID, c.communities)
	for cm := range pools {
		pools[cm] = append([]graph.NodeID(nil), members[cm]...)
	}

	seen := make(map[edgeKey]struct{}, c.nodes*c.degree)
	for i := 0; i < c.nodes; i++ {
		src := graph.NodeID(i)
		cm := community[i]
		for e := 0; e < c.degree; e++ {
			var dst graph.NodeID
			if rng.Float64() < c.intra {
				dst = pools[cm][rng.Intn(len(pools[cm]))]
			} else {
				dst = graph.NodeID(rng.Intn(c.nodes))
			}
			if dst == src {
				continue
			}
			from, to := src, dst
			if c.acyclic && from < to {
				from, to = to, from
			}
			label := pickLabel()
			key := edgeKey{from, to, label}
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			if err := emit(Op{Kind: OpEdge, From: from, To: to, Label: label}); err != nil {
				return err
			}
			pools[community[dst]] = append(pools[community[dst]], dst)
			if !c.acyclic && label == "friend" && rng.Float64() < c.reciprocity {
				rkey := edgeKey{dst, src, label}
				if _, dup := seen[rkey]; !dup {
					seen[rkey] = struct{}{}
					if err := emit(Op{Kind: OpEdge, From: dst, To: src, Label: label}); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
