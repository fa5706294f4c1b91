package generate

import (
	"math"
	"math/rand"

	"reachac/internal/graph"
)

// ldbcTopology is the scalable power-law family: LDBC-SNB-style social
// shape (heavy-tailed popularity, heavy-tailed fan-out, planted
// communities) generated with O(degree) working memory per node, so a
// million-node build streams in constant space.
//
// Mechanics:
//
//   - Popularity is rank-based Chung-Lu: the chance an edge lands on the
//     rank-r member falls off as (r+1)^-gamma, sampled by a closed-form
//     inverse CDF — no weight tables. Rank r is member id r globally and
//     member c + r*K inside community c, so low ids are the celebrities.
//   - Out-degrees are Pareto with mean = degree (xm = degree*(alpha-1)/alpha),
//     capped at maxDegree.
//   - Node i belongs to community i mod K (the same round-robin rule as
//     osn); an edge stays inside its source's community with probability
//     intra.
//   - Duplicate suppression is per source only (every edge out of i is
//     emitted during i's turn, into a halfEdges slice capped at
//     maxDegree), which is what keeps memory bounded.
//     There is consequently no reciprocity pass — the graph is a
//     directed follows-style network; use osn when reciprocated
//     friendship edges matter.
type ldbcTopology struct{ cfg config }

func (t *ldbcTopology) Kind() string { return "ldbc" }
func (t *ldbcTopology) Nodes() int   { return t.cfg.nodes }
func (t *ldbcTopology) Seed() int64  { return t.cfg.seed }

// powerLaw draws ranks in [0, m) with P(r) proportional to (r+1)^-gamma via
// the inverse of the continuous CDF — O(1) time and space for any m. span
// and invExp depend only on m and gamma, so they are computed once per
// distinct m rather than once per draw.
type powerLaw struct {
	m      int
	span   float64 // (m+1)^(1-gamma) - 1
	invExp float64 // 1/(1-gamma)
}

func newPowerLaw(m int, oneMinusGamma float64) powerLaw {
	return powerLaw{m: m, span: math.Pow(float64(m)+1, oneMinusGamma) - 1, invExp: 1 / oneMinusGamma}
}

func (p powerLaw) rank(rng *rand.Rand) int {
	u := rng.Float64()
	t := math.Pow(1+u*p.span, p.invExp)
	r := int(t) - 1
	if r < 0 {
		r = 0
	}
	if r >= p.m {
		r = p.m - 1
	}
	return r
}

func (t *ldbcTopology) Stream(emit func(Op) error) error {
	c := t.cfg
	rng := rand.New(rand.NewSource(c.seed))

	labels, cum, total := sortedWeightTable(c.labelWeights)
	pickLabel := func() int {
		x := rng.Float64() * total
		for i, w := range cum {
			if x < w {
				return i
			}
		}
		return len(labels) - 1
	}

	for i := 0; i < c.nodes; i++ {
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
	}

	k := c.communities
	xm := float64(c.degree) * (c.alpha - 1) / c.alpha
	oneMinusGamma := 1 - c.gamma
	global := newPowerLaw(c.nodes, oneMinusGamma)
	// Community cm holds members cm, cm+k, cm+2k, ...
	local := make([]powerLaw, k)
	for cm := range local {
		local[cm] = newPowerLaw((c.nodes-cm+k-1)/k, oneMinusGamma)
	}
	seen := make(halfEdges, 0, c.maxDegree)
	for i := 0; i < c.nodes; i++ {
		src := graph.NodeID(i)
		cm := i % k
		outDeg := int(xm * math.Pow(1-rng.Float64(), -1/c.alpha))
		if outDeg < 1 {
			outDeg = 1
		}
		if outDeg > c.maxDegree {
			outDeg = c.maxDegree
		}
		seen = seen[:0]
		for e := 0; e < outDeg; e++ {
			var dst graph.NodeID
			if rng.Float64() < c.intra {
				dst = graph.NodeID(cm + local[cm].rank(rng)*k)
			} else {
				dst = graph.NodeID(global.rank(rng))
			}
			label := pickLabel()
			if dst == src {
				continue
			}
			if !seen.add(dst, label) {
				continue
			}
			if err := emit(Op{Kind: OpEdge, From: src, To: dst, Label: labels[label]}); err != nil {
				return err
			}
		}
	}
	return nil
}
