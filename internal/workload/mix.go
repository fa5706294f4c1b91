package workload

import (
	"fmt"
	"math/rand"

	"reachac/internal/graph"
)

// OpKind enumerates the operation types a scenario mix draws from.
type OpKind uint8

// Operation kinds.
const (
	// OpCheck is one access decision (resource, requester).
	OpCheck OpKind = iota
	// OpCheckBatch decides one resource for many requesters at once.
	OpCheckBatch
	// OpAudience enumerates everyone a resource's rules admit.
	OpAudience
	// OpRelate adds a relationship edge; OpUnrelate removes one the same
	// generator added earlier (the generator keeps the graph size stable
	// by toggling its own pairs).
	OpRelate
	OpUnrelate
	// OpShare attaches a rule to a resource; OpRevoke removes the oldest
	// rule this generator shared (the driver supplies the concrete rule
	// ID it got back from its matching OpShare).
	OpShare
	OpRevoke
)

func (k OpKind) String() string {
	switch k {
	case OpCheck:
		return "check"
	case OpCheckBatch:
		return "check-batch"
	case OpAudience:
		return "audience"
	case OpRelate:
		return "relate"
	case OpUnrelate:
		return "unrelate"
	case OpShare:
		return "share"
	case OpRevoke:
		return "revoke"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one generated operation. Which fields are meaningful depends on
// Kind; Resource indexes the scenario's ResourceSpec slice.
type Op struct {
	Kind       OpKind
	Resource   int
	Requester  graph.NodeID
	Requesters []graph.NodeID
	Owner      graph.NodeID
	From, To   graph.NodeID
	RelType    string
	Paths      []string
}

// Mix weighs the operation families of a named scenario. The weights are
// relative; zero-weight families never occur. Mutate covers the
// relate/unrelate edge toggle, Churn the share/revoke policy cycle.
type Mix struct {
	Name       string
	Check      float64
	CheckBatch float64
	Audience   float64
	Mutate     float64
	Churn      float64
	// BatchSize sizes OpCheckBatch requester lists (default 16).
	BatchSize int
}

// ResourceSpec is one pre-shared resource a scenario runs against: its
// name, owning member, and the policy paths of its initial rule.
type ResourceSpec struct {
	Name  string
	Owner graph.NodeID
	Paths []string
}

// GenConfig parameterizes a Generator beyond its mix.
type GenConfig struct {
	// Resources are the scenario's pre-shared resources (required).
	Resources []ResourceSpec
	// HitFraction is the probability a check's requester is drawn from
	// the resource owner's random-walk hit set — likely to satisfy the
	// policy — instead of zipf-skewed over all members (default 0.6).
	HitFraction float64
	// MaxWalk bounds the hit-sampling walk length (default 3).
	MaxWalk int
	// ZipfS and ZipfV shape the requester/resource popularity skew
	// (defaults 1.2 and 1.0; a few hot members and resources, a long
	// tail).
	ZipfS, ZipfV float64
	// Worker and Workers partition the mutation key space: generator w of
	// W only toggles edges whose source node id ≡ w (mod W), so
	// concurrent generators never contend on the same relationship.
	// Defaults 0 of 1.
	Worker, Workers int
	// LiveEdges is the toggle window: the generator adds edges until this
	// many of its own are live, then alternates removal and addition,
	// keeping the graph size stable (default 64).
	LiveEdges int
	// LiveRules is the churn window: outstanding shares before the
	// generator starts revoking its oldest (default 16).
	LiveRules int
	// RelTypes are the labels mutation edges rotate through (default
	// ["friend", "colleague"]).
	RelTypes []string
	// HitSetSize bounds the per-resource hit sample (default 32).
	HitSetSize int
	// Catalog is the policy-shape catalog churn shares rotate through
	// (default DefaultCatalog); scenario-driven drivers pass their
	// scenario's catalog so churned-in rules match the scenario's shape
	// family.
	Catalog []QuerySpec
}

func (c *GenConfig) defaults() {
	if c.HitFraction <= 0 {
		c.HitFraction = 0.6
	}
	if c.MaxWalk <= 0 {
		c.MaxWalk = 3
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.ZipfV < 1 {
		c.ZipfV = 1.0
	}
	if c.Workers <= 0 {
		c.Worker, c.Workers = 0, 1
	}
	if c.LiveEdges <= 0 {
		c.LiveEdges = 64
	}
	if c.LiveRules <= 0 {
		c.LiveRules = 16
	}
	if len(c.RelTypes) == 0 {
		c.RelTypes = []string{"friend", "colleague"}
	}
	if c.HitSetSize <= 0 {
		c.HitSetSize = 32
	}
	if len(c.Catalog) == 0 {
		c.Catalog = DefaultCatalog()
	}
}

// edgePair is one candidate mutation edge.
type edgePair struct {
	from, to graph.NodeID
	label    string
}

// Generator emits a deterministic mixed-operation stream for one worker:
// the same seed and configuration produce the same stream. Construction
// reads the graph (precomputing hit sets and a duplicate-free mutation
// pool); Next never touches it, so generators stay safe while the live
// graph mutates under the benchmark. A Generator is not safe for
// concurrent use — give each worker its own.
type Generator struct {
	mix Mix
	cfg GenConfig

	rng       *rand.Rand
	zipfNodes *rand.Zipf
	zipfRes   *rand.Zipf
	nodes     int

	// cum is the cumulative weight table over {Check, CheckBatch,
	// Audience, Mutate, Churn}.
	cum [5]float64

	// hits[r] holds requesters reached by bounded random walks from
	// resource r's owner.
	hits [][]graph.NodeID

	// pool is the worker-partitioned candidate edge pool (absent from the
	// initial graph); live is the FIFO of currently-toggled-on pairs.
	pool    []edgePair
	poolPos int
	live    []edgePair
	liveSet map[edgePair]struct{}

	// sharedRes is the FIFO of resource indexes this generator shared on
	// and has not yet revoked; pathPos rotates catalog paths for shares.
	sharedRes []int
	pathPos   int
	catalog   []QuerySpec
}

// NewGenerator builds a generator over src for one worker of a scenario.
// It must be called before the benchmark starts mutating the underlying
// graph (or, for a View-backed Source, over a pinned snapshot).
func NewGenerator(src Source, mix Mix, cfg GenConfig, seed int64) *Generator {
	cfg.defaults()
	if len(cfg.Resources) == 0 {
		panic("workload: NewGenerator needs at least one ResourceSpec")
	}
	if mix.BatchSize <= 0 {
		mix.BatchSize = 16
	}
	rng := rand.New(rand.NewSource(seed))
	nodes := src.NumNodes()
	gen := &Generator{
		mix:     mix,
		cfg:     cfg,
		rng:     rng,
		nodes:   nodes,
		liveSet: make(map[edgePair]struct{}),
		catalog: cfg.Catalog,
	}
	if nodes > 1 {
		gen.zipfNodes = rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(nodes-1))
	}
	if len(cfg.Resources) > 1 {
		gen.zipfRes = rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(len(cfg.Resources)-1))
	}
	total := 0.0
	for i, w := range []float64{mix.Check, mix.CheckBatch, mix.Audience, mix.Mutate, mix.Churn} {
		total += w
		gen.cum[i] = total
	}
	if total <= 0 {
		gen.cum = [5]float64{1, 1, 1, 1, 1} // degenerate mix: everything is a check
	}
	gen.precomputeHits(src)
	gen.precomputePool(src)
	return gen
}

// precomputeHits samples, per resource, requesters a bounded random walk
// reaches from the owner — the population likely to satisfy reachability
// policies (the same technique as HitPairs, anchored per owner).
func (gen *Generator) precomputeHits(src Source) {
	gen.hits = make([][]graph.NodeID, len(gen.cfg.Resources))
	for r, spec := range gen.cfg.Resources {
		seen := make(map[graph.NodeID]struct{})
		var hs []graph.NodeID
		for attempt := 0; attempt < 4*gen.cfg.HitSetSize && len(hs) < gen.cfg.HitSetSize; attempt++ {
			cur := spec.Owner
			steps := 1 + gen.rng.Intn(gen.cfg.MaxWalk)
			ok := true
			for s := 0; s < steps; s++ {
				outs := outTargets(src, cur)
				if len(outs) == 0 {
					ok = false
					break
				}
				cur = outs[gen.rng.Intn(len(outs))]
			}
			if !ok || cur == spec.Owner {
				continue
			}
			if _, dup := seen[cur]; dup {
				continue
			}
			seen[cur] = struct{}{}
			hs = append(hs, cur)
		}
		gen.hits[r] = hs
	}
}

// precomputePool collects candidate mutation edges from this worker's
// partition that are absent from the initial graph, so toggling them never
// hits a duplicate.
func (gen *Generator) precomputePool(src Source) {
	if gen.nodes < 2 {
		return
	}
	want := 2*gen.cfg.LiveEdges + 8
	seen := make(map[edgePair]struct{})
	for attempt := 0; attempt < 50*want && len(gen.pool) < want; attempt++ {
		from := graph.NodeID(gen.rng.Intn(gen.nodes))
		if int(from)%gen.cfg.Workers != gen.cfg.Worker {
			continue
		}
		to := graph.NodeID(gen.rng.Intn(gen.nodes))
		if to == from {
			continue
		}
		label := gen.cfg.RelTypes[len(gen.pool)%len(gen.cfg.RelTypes)]
		p := edgePair{from, to, label}
		if _, dup := seen[p]; dup || src.HasEdge(from, to, label) {
			continue
		}
		seen[p] = struct{}{}
		gen.pool = append(gen.pool, p)
	}
}

// Next returns the stream's next operation. Returned slices (Requesters,
// Paths) are freshly allocated; the caller may retain them.
func (gen *Generator) Next() Op {
	x := gen.rng.Float64() * gen.cum[4]
	switch {
	case x < gen.cum[0]:
		return gen.nextCheck()
	case x < gen.cum[1]:
		return gen.nextCheckBatch()
	case x < gen.cum[2]:
		return gen.nextAudience()
	case x < gen.cum[3]:
		return gen.nextMutate()
	default:
		return gen.nextChurn()
	}
}

// resource draws a zipf-skewed resource index.
func (gen *Generator) resource() int {
	if gen.zipfRes == nil {
		return 0
	}
	return int(gen.zipfRes.Uint64())
}

// requesterFor draws a requester for resource r: from its hit set with
// probability HitFraction, else zipf-skewed over all members (hot
// accessors probing resources they mostly cannot reach).
func (gen *Generator) requesterFor(r int) graph.NodeID {
	spec := gen.cfg.Resources[r]
	if hs := gen.hits[r]; len(hs) > 0 && gen.rng.Float64() < gen.cfg.HitFraction {
		return hs[gen.rng.Intn(len(hs))]
	}
	req := spec.Owner
	for tries := 0; req == spec.Owner && tries < 8; tries++ {
		if gen.zipfNodes != nil {
			req = graph.NodeID(gen.zipfNodes.Uint64())
		}
	}
	return req
}

func (gen *Generator) nextCheck() Op {
	r := gen.resource()
	return Op{Kind: OpCheck, Resource: r, Requester: gen.requesterFor(r)}
}

func (gen *Generator) nextCheckBatch() Op {
	r := gen.resource()
	reqs := make([]graph.NodeID, gen.mix.BatchSize)
	for i := range reqs {
		reqs[i] = gen.requesterFor(r)
	}
	return Op{Kind: OpCheckBatch, Resource: r, Requesters: reqs}
}

func (gen *Generator) nextAudience() Op {
	return Op{Kind: OpAudience, Resource: gen.resource()}
}

// nextMutate toggles the generator's own edges: add from the
// duplicate-free pool until LiveEdges are live, then alternate removing
// the oldest and adding the next, keeping graph size stable.
func (gen *Generator) nextMutate() Op {
	if len(gen.pool) == 0 {
		return gen.nextCheck() // tiny graph: no safe mutation pairs
	}
	if len(gen.live) >= gen.cfg.LiveEdges || len(gen.live) == len(gen.pool) {
		p := gen.live[0]
		gen.live = gen.live[1:]
		delete(gen.liveSet, p)
		return Op{Kind: OpUnrelate, From: p.from, To: p.to, RelType: p.label}
	}
	// Advance past pairs still live; pool size 2×LiveEdges guarantees a
	// free one within a bounded scan.
	for tries := 0; tries < len(gen.pool); tries++ {
		p := gen.pool[gen.poolPos%len(gen.pool)]
		gen.poolPos++
		if _, isLive := gen.liveSet[p]; isLive {
			continue
		}
		gen.live = append(gen.live, p)
		gen.liveSet[p] = struct{}{}
		return Op{Kind: OpRelate, From: p.from, To: p.to, RelType: p.label}
	}
	return gen.nextCheck()
}

// nextChurn cycles policies: share until LiveRules of this generator's
// shares are outstanding, then alternate revoking the oldest and sharing
// anew.
func (gen *Generator) nextChurn() Op {
	if len(gen.sharedRes) >= gen.cfg.LiveRules {
		r := gen.sharedRes[0]
		gen.sharedRes = gen.sharedRes[1:]
		return Op{Kind: OpRevoke, Resource: r}
	}
	r := gen.resource()
	spec := gen.cfg.Resources[r]
	path := gen.catalog[gen.pathPos%len(gen.catalog)].Path.String()
	gen.pathPos++
	gen.sharedRes = append(gen.sharedRes, r)
	return Op{Kind: OpShare, Resource: r, Owner: spec.Owner, Paths: []string{path}}
}
