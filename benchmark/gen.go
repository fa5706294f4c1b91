package main

import (
	"fmt"
	"math/rand"

	"reachac/internal/graph"
	"reachac/internal/workload"
)

// mix is the share of each operation family in a workload; the four sum to 1.
type mix struct {
	check  float64 // one Check / CanAccess
	batch  float64 // one CheckBatch / CanAccessAll of batchSize requesters
	toggle float64 // relate, or unrelate of an edge this worker related
	churn  float64 // share, or revoke of a rule this worker shared
}

const (
	batchSize = 16
	// liveEdges and liveRules are the per-worker windows: a worker adds
	// until that many of its own edges (rules) are live, then alternates
	// removal and addition, so graph and policy size stay put.
	liveEdges = 64
	liveRules = 16
	// hitSetSize requesters per resource are drawn from the owner's
	// neighbourhood, so that a zipf workload still sees allows.
	hitSetSize = 32
)

// workloadSpec is one benchmark workload: what is built and what is sent.
type workloadSpec struct {
	name      string
	why       string
	http      bool // acserverd's stack over loopback; otherwise the embedded library
	nodes     int
	resources int
	catalog   []string
	// uniform draws requesters uniformly, half of them from a walk of at
	// most four steps from the owner so that allows need a real witness, and
	// no cache can hold the working set; otherwise a quarter are zipf-1.2
	// over all members and the rest come from the resource's hit set, the
	// owner's neighbourhood being who mostly asks.
	uniform bool
	mix     mix
	// rate is the fixed open-loop arrival rate in requests per second, about
	// a third of the saturation measured on a 2-core box; 0 means the
	// callers are in-process and the workload is closed loop only.
	rate int
	// pinEvery makes every pinEvery-th operation of a worker a pin: it closes
	// the reachac.View the worker holds and opens one on the current
	// snapshot, a reader still in flight when later publications arrive. The
	// second publication after a pin finds that reader on the spare snapshot
	// and falls back from the O(delta) advance to the full rebuild (clone,
	// CSR, evaluator), once per pin. Concurrent callers cause the same
	// fallback by chance, which is the roadmap's scaling cliff; the schedule
	// makes its count a function of the operation count. 0 means never.
	pinEvery int
	// limitUS is the latency limit of the paced phase (check p99 on
	// http-check, write p99 on http-write); harness.limit_miss_ratio is the
	// share of paced requests of that kind over it.
	limitUS float64
}

func defaultCatalog() []string {
	var out []string
	for _, q := range workload.DefaultCatalog() {
		out = append(out, q.Path.String())
	}
	return out
}

// deepCatalog is policies whose evaluation is a real multi-hop search.
var deepCatalog = []string{
	"friend+[1,3]",
	"friend+[1,4]",
	"colleague+[1]/friend+[1,2]",
	"friend+[1,2]/colleague+[1]/friend+[1]",
	"friend-[1]/colleague+[1]",
}

var workloads = []workloadSpec{
	{
		name: "http-check", http: true, nodes: 20000, resources: 48, catalog: defaultCatalog(),
		mix: mix{check: 0.9, batch: 0.1}, rate: 6000, limitUS: 2000,
		why: "working set fits every cache, so client, loopback, server and codec are the cost and the evaluator is not",
	},
	{
		name: "http-write", http: true, nodes: 20000, resources: 48, catalog: defaultCatalog(),
		mix: mix{check: 0.5, toggle: 0.4, churn: 0.1}, rate: 2000, limitUS: 10000,
		why: "mutation queue, coalescing, WAL append, publication beside reads; acknowledged writes must survive a reopen",
	},
	{
		name: "embed-deep", nodes: 100000, resources: 8192, catalog: deepCatalog, uniform: true,
		mix: mix{check: 1},
		why: "uniform deep checks over more resources than any cache holds, so flat product-BFS and planner routing do the work",
	},
	{
		name: "embed-churn", nodes: 20000, resources: 512, catalog: defaultCatalog(),
		mix: mix{check: 0.9, toggle: 0.05, churn: 0.05}, pinEvery: 2048,
		why: "cacheable reads with 10 % writes and a reader pinned across publications, so per-publication cost dominates (the roadmap's scaling cliff)",
	},
}

func workloadByName(name string) (*workloadSpec, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// adjacency is an immutable copy of the generated graph's out-edges in CSR
// form. Generators walk it and test candidate edges against it; it never
// sees the mutations of the run, which is what keeps op streams a function
// of the seed alone.
type adjacency struct {
	off    []uint32
	to     []uint32
	label  []uint8
	labels []string
}

func newAdjacency(g *graph.Graph) *adjacency {
	n := g.NumNodes()
	a := &adjacency{off: make([]uint32, n+1), labels: g.Labels()}
	g.Edges(func(e graph.Edge) bool {
		a.off[e.From+1]++
		return true
	})
	for i := 0; i < n; i++ {
		a.off[i+1] += a.off[i]
	}
	a.to = make([]uint32, a.off[n])
	a.label = make([]uint8, a.off[n])
	fill := append([]uint32(nil), a.off[:n]...)
	g.Edges(func(e graph.Edge) bool {
		i := fill[e.From]
		fill[e.From]++
		a.to[i], a.label[i] = uint32(e.To), uint8(e.Label)
		return true
	})
	return a
}

func (a *adjacency) nodes() int { return len(a.off) - 1 }

func (a *adjacency) degree(n uint32) int { return int(a.off[n+1] - a.off[n]) }

func (a *adjacency) has(from, to uint32, label string) bool {
	for i := a.off[from]; i < a.off[from+1]; i++ {
		if a.to[i] == to && a.labels[a.label[i]] == label {
			return true
		}
	}
	return false
}

// walk takes up to steps random out-edges from n and returns where it ends.
func (a *adjacency) walk(rng *rand.Rand, n uint32, steps int) uint32 {
	for ; steps > 0; steps-- {
		d := a.degree(n)
		if d == 0 {
			break
		}
		n = a.to[a.off[n]+uint32(rng.Intn(d))]
	}
	return n
}

// resSpec is one pre-shared resource.
type resSpec struct {
	name  string
	owner uint32
	path  string
	hits  []uint32
}

// minOwnerDegree is the least out-degree of a resource's owner: the graph's
// mean, so that a policy has a neighbourhood to match in and a deep check is
// mostly search rather than the fixed cost around it.
const minOwnerDegree = 8

// makeSpecs picks the workload's resources: owners of at least
// minOwnerDegree, policy shapes rotating through the catalog.
func makeSpecs(w *workloadSpec, adj *adjacency, seed int64) []resSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]resSpec, w.resources)
	for i := range specs {
		owner := uint32(rng.Intn(adj.nodes()))
		for adj.degree(owner) < minOwnerDegree {
			owner = uint32(rng.Intn(adj.nodes()))
		}
		s := resSpec{name: fmt.Sprintf("res%05d", i), owner: owner, path: w.catalog[i%len(w.catalog)]}
		if !w.uniform {
			for len(s.hits) < hitSetSize {
				s.hits = append(s.hits, adj.walk(rng, owner, 1+rng.Intn(2)))
			}
		}
		specs[i] = s
	}
	return specs
}

type opKind uint8

const (
	opCheck opKind = iota
	opBatch
	opPin
	opRelate
	opUnrelate
	opShare
	opRevoke
)

func (k opKind) isWrite() bool { return k >= opRelate }

// op is one generated operation; which fields matter depends on kind.
type op struct {
	kind      opKind
	res       int // index into the workload's specs
	requester uint32
	batch     []uint32 // valid until the generator's next call
	from, to  uint32
	label     string
	path      string // opShare
	rule      string // opRevoke
}

type edgeKey struct {
	from, to uint32
	label    string
}

type liveRule struct {
	res int
	id  string
}

// generator emits one worker's operation stream. The stream is a function of
// (seed, worker) as long as every operation succeeds; done feeds back the one
// thing only the system knows, the rule ID a share returned.
type generator struct {
	w       *workloadSpec
	adj     *adjacency
	specs   []resSpec
	rng     *rand.Rand
	zipf    *rand.Zipf
	worker  int
	workers int

	edges    []edgeKey // this worker's live toggled edges, oldest first
	edgeSet  map[edgeKey]struct{}
	dropEdge bool // window full: the next toggle removes
	rules    []liveRule
	dropRule bool
	batchBuf [batchSize]uint32
	issued   int // operations so far, for the pin schedule
}

var toggleLabels = []string{"friend", "colleague"}

func newGenerator(w *workloadSpec, adj *adjacency, specs []resSpec, seed int64, worker, workers int) *generator {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(worker)))
	return &generator{
		w: w, adj: adj, specs: specs, rng: rng,
		zipf:   rand.NewZipf(rng, 1.2, 1, uint64(adj.nodes()-1)),
		worker: worker, workers: workers,
		edgeSet: make(map[edgeKey]struct{}),
	}
}

// mine draws an index below n that is congruent to the worker's number, the
// rule that keeps the workers' mutation key spaces disjoint.
func (g *generator) mine(n int) int {
	return g.rng.Intn((n-g.worker+g.workers-1)/g.workers)*g.workers + g.worker
}

func (g *generator) requester(res int) uint32 {
	s := &g.specs[res]
	r := g.rng.Intn(4)
	switch {
	case g.w.uniform && r < 2:
		return g.adj.walk(g.rng, s.owner, 1+g.rng.Intn(4))
	case g.w.uniform:
		return uint32(g.rng.Intn(g.adj.nodes()))
	case r < 3:
		return s.hits[g.rng.Intn(len(s.hits))]
	default:
		return uint32(g.zipf.Uint64())
	}
}

func (g *generator) next() op {
	g.issued++
	if g.w.pinEvery > 0 && g.issued%g.w.pinEvery == 0 {
		return op{kind: opPin}
	}
	m := g.w.mix
	r := g.rng.Float64()
	switch {
	case r < m.check:
		res := g.rng.Intn(len(g.specs))
		return op{kind: opCheck, res: res, requester: g.requester(res)}
	case r < m.check+m.batch:
		res := g.rng.Intn(len(g.specs))
		for i := range g.batchBuf {
			g.batchBuf[i] = g.requester(res)
		}
		return op{kind: opBatch, res: res, batch: g.batchBuf[:]}
	case r < m.check+m.batch+m.toggle:
		return g.toggle()
	default:
		return g.churn()
	}
}

func (g *generator) toggle() op {
	if g.dropEdge && len(g.edges) > 0 {
		e := g.edges[0]
		g.edges = g.edges[1:]
		delete(g.edgeSet, e)
		g.dropEdge = false
		return op{kind: opUnrelate, from: e.from, to: e.to, label: e.label}
	}
	for {
		e := edgeKey{from: uint32(g.mine(g.adj.nodes())), to: uint32(g.rng.Intn(g.adj.nodes())),
			label: toggleLabels[g.rng.Intn(len(toggleLabels))]}
		if _, live := g.edgeSet[e]; live || e.from == e.to || g.adj.has(e.from, e.to, e.label) {
			continue
		}
		return op{kind: opRelate, from: e.from, to: e.to, label: e.label}
	}
}

func (g *generator) churn() op {
	if g.dropRule && len(g.rules) > 0 {
		r := g.rules[0]
		g.rules = g.rules[1:]
		g.dropRule = false
		return op{kind: opRevoke, res: r.res, rule: r.id}
	}
	return op{kind: opShare, res: g.mine(len(g.specs)), path: g.w.catalog[g.rng.Intn(len(g.w.catalog))]}
}

// done records an acknowledged mutation: the edge or rule joins the worker's
// live window, and a full window makes the next mutation of that family a
// removal.
func (g *generator) done(o *op, rule string, err error) {
	if err != nil {
		return
	}
	switch o.kind {
	case opRelate:
		e := edgeKey{o.from, o.to, o.label}
		g.edges = append(g.edges, e)
		g.edgeSet[e] = struct{}{}
		g.dropEdge = len(g.edges) >= liveEdges
	case opShare:
		g.rules = append(g.rules, liveRule{o.res, rule})
		g.dropRule = len(g.rules) >= liveRules
	}
}
