package generate

import (
	"fmt"
	"sort"
	"strings"
)

// config carries every knob a family can consume. Families read only the
// fields that apply to them; New resolves defaults per kind.
type config struct {
	kind         string
	nodes        int
	seed         int64
	communities  int
	degree       int
	edges        int
	intra        float64
	labels       []string
	labelWeights map[string]float64
	withAttrs    bool
	acyclic      bool
	reciprocity  float64
	beta         float64
	gamma        float64
	alpha        float64
	maxDegree    int
}

// Option configures a Topology under construction by New.
type Option func(*config)

// WithNodes sets the member count. Required for every kind.
func WithNodes(n int) Option { return func(c *config) { c.nodes = n } }

// WithSeed sets the random seed; every stream of the resulting Topology
// is a pure function of kind, options and seed.
func WithSeed(s int64) Option { return func(c *config) { c.seed = s } }

// WithCommunities sets the number of planted communities (osn, ldbc).
// Members are assigned round-robin: node i belongs to community i mod k.
func WithCommunities(k int) Option { return func(c *config) { c.communities = k } }

// WithDegree sets the target mean out-degree (osn, ldbc) or the per-node
// attachment/lattice degree (ba, ws).
func WithDegree(d int) Option { return func(c *config) { c.degree = d } }

// WithEdges sets the exact edge count for the er kind.
func WithEdges(m int) Option { return func(c *config) { c.edges = m } }

// WithIntraProb sets the probability an edge stays inside its source's
// community (osn, ldbc; default 0.8).
func WithIntraProb(p float64) Option { return func(c *config) { c.intra = p } }

// WithLabels sets the uniformly-sampled relationship types for the
// er/ba/ws kinds (default friend, colleague, parent, follows).
func WithLabels(labels ...string) Option {
	return func(c *config) { c.labels = append([]string(nil), labels...) }
}

// WithLabelWeights sets the weighted relationship-type mix for the
// osn/ldbc kinds (default friend 0.65, colleague 0.2, parent 0.05,
// follows 0.1).
func WithLabelWeights(w map[string]float64) Option {
	return func(c *config) {
		c.labelWeights = make(map[string]float64, len(w))
		for k, v := range w {
			c.labelWeights[k] = v
		}
	}
}

// WithAttrs adds age/city/gender attributes to every member (osn, ldbc).
func WithAttrs() Option { return func(c *config) { c.withAttrs = true } }

// WithAcyclic orients every osn edge from the higher member id to the
// lower, producing an acyclic hierarchy; reciprocity is ignored.
func WithAcyclic() Option { return func(c *config) { c.acyclic = true } }

// WithReciprocity sets the probability an osn friend edge is
// reciprocated (default 0.5; values <= 0 fall back to the default, a
// quirk the frozen draw sequence depends on).
func WithReciprocity(p float64) Option { return func(c *config) { c.reciprocity = p } }

// WithRewire sets the Watts–Strogatz rewiring probability beta
// (default 0.1).
func WithRewire(beta float64) Option { return func(c *config) { c.beta = beta } }

// WithPowerLaw sets the ldbc target-popularity exponent gamma in (0, 1):
// the chance an edge lands on the rank-r member falls off as
// (r+1)^-gamma, so the in-degree distribution is power-law with exponent
// about 1 + 1/gamma (default 0.65 — exponent ~2.5, the social-network
// regime).
func WithPowerLaw(gamma float64) Option { return func(c *config) { c.gamma = gamma } }

// WithDegreeTail sets the ldbc out-degree Pareto shape alpha > 1
// (default 2.5); smaller alpha means heavier-tailed fan-out.
func WithDegreeTail(alpha float64) Option { return func(c *config) { c.alpha = alpha } }

// WithMaxDegree caps the ldbc per-member out-degree (default
// 16*degree + 48, always further clamped to nodes-1).
func WithMaxDegree(d int) Option { return func(c *config) { c.maxDegree = d } }

// Kinds lists the topology families New accepts, in documentation order.
func Kinds() []string { return []string{"osn", "ldbc", "er", "ba", "ws"} }

// New builds a Topology of the named kind:
//
//	osn   community-structured social graph with typed edges, hubs from
//	      per-community preferential pools, optional reciprocity,
//	      attributes and acyclic orientation (the legacy OSN generator).
//	ldbc  LDBC-style power-law social graph: Chung-Lu target sampling
//	      with a closed-form inverse CDF, Pareto out-degrees and planted
//	      communities; O(degree) working memory per node, so it is the
//	      family for million-node streams.
//	er    directed Erdős–Rényi G(n, m).
//	ba    Barabási–Albert preferential attachment.
//	ws    Watts–Strogatz small-world ring lattice.
//
// Every kind requires WithNodes; everything else defaults per kind. The
// returned Topology is immutable and safe for repeated Streams.
func New(kind string, opts ...Option) (Topology, error) {
	// beta starts at -1 so WithRewire(0) (a pure, unrewired lattice) is
	// distinguishable from "not set".
	c := config{kind: kind, beta: -1}
	for _, o := range opts {
		o(&c)
	}
	if c.nodes <= 0 {
		return nil, fmt.Errorf("generate: kind %q needs WithNodes(n > 0), got %d", kind, c.nodes)
	}
	switch kind {
	case "osn":
		c.osnDefaults()
		return &osnTopology{cfg: c}, nil
	case "ldbc":
		if c.acyclic {
			return nil, fmt.Errorf("generate: ldbc does not support WithAcyclic (use osn)")
		}
		if c.reciprocity > 0 {
			return nil, fmt.Errorf("generate: ldbc does not support WithReciprocity (use osn)")
		}
		c.ldbcDefaults()
		if c.gamma <= 0 || c.gamma >= 1 {
			return nil, fmt.Errorf("generate: ldbc power-law gamma must be in (0,1), got %g", c.gamma)
		}
		if c.alpha <= 1 {
			return nil, fmt.Errorf("generate: ldbc degree-tail alpha must be > 1, got %g", c.alpha)
		}
		return &ldbcTopology{cfg: c}, nil
	case "er":
		c.uniformDefaults()
		if c.edges <= 0 {
			c.edges = 4 * c.nodes
		}
		if maxEdges := c.nodes * (c.nodes - 1) * len(c.labels); c.edges > maxEdges {
			return nil, fmt.Errorf("generate: er cannot place %d distinct edges on %d nodes", c.edges, c.nodes)
		}
		return &erTopology{cfg: c}, nil
	case "ba":
		if c.degree <= 0 {
			c.degree = 3
		}
		c.uniformDefaults()
		return &baTopology{cfg: c}, nil
	case "ws":
		if c.degree <= 0 {
			c.degree = 3
		}
		if c.beta < 0 {
			c.beta = 0.1
		}
		c.uniformDefaults()
		return &wsTopology{cfg: c}, nil
	default:
		return nil, fmt.Errorf("generate: unknown topology kind %q (kinds: %s)", kind, strings.Join(Kinds(), ", "))
	}
}

// MustNew is New for fixtures; it panics on error.
func MustNew(kind string, opts ...Option) Topology {
	t, err := New(kind, opts...)
	if err != nil {
		panic(err)
	}
	return t
}

var defaultLabels = []string{"friend", "colleague", "parent", "follows"}

func (c *config) uniformDefaults() {
	if len(c.labels) == 0 {
		c.labels = append([]string(nil), defaultLabels...)
	}
}

func (c *config) osnDefaults() {
	if c.communities <= 0 {
		c.communities = c.nodes/500 + 4
	}
	if c.degree <= 0 {
		c.degree = 8
	}
	if c.intra <= 0 {
		c.intra = 0.8
	}
	if len(c.labelWeights) == 0 {
		c.labelWeights = map[string]float64{
			"friend": 0.65, "colleague": 0.2, "parent": 0.05, "follows": 0.1,
		}
	}
	if c.reciprocity <= 0 {
		c.reciprocity = 0.5
	}
}

func (c *config) ldbcDefaults() {
	if c.communities <= 0 {
		c.communities = c.nodes/1000 + 8
	}
	if c.communities > c.nodes {
		c.communities = c.nodes
	}
	if c.degree <= 0 {
		c.degree = 8
	}
	if c.intra <= 0 {
		c.intra = 0.8
	}
	if len(c.labelWeights) == 0 {
		c.labelWeights = map[string]float64{
			"friend": 0.65, "colleague": 0.2, "parent": 0.05, "follows": 0.1,
		}
	}
	if c.gamma == 0 {
		c.gamma = 0.65
	}
	if c.alpha == 0 {
		c.alpha = 2.5
	}
	if c.maxDegree <= 0 {
		c.maxDegree = 16*c.degree + 48
	}
	if c.maxDegree > c.nodes-1 {
		c.maxDegree = c.nodes - 1
	}
}

// sortedWeightTable flattens a label-weight map into the cumulative table
// weighted samplers walk; label order is sorted for determinism.
func sortedWeightTable(w map[string]float64) (labels []string, cum []float64, total float64) {
	labels = make([]string, 0, len(w))
	for l := range w {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	cum = make([]float64, len(labels))
	for i, l := range labels {
		total += w[l]
		cum[i] = total
	}
	return labels, cum, total
}
