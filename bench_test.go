package reachac

// Benchmark families, one per experiment of cmd/experiments (the §5 row of
// ARCHITECTURE.md's "Paper section → package map"; run it for the full
// table-producing sweeps — these testing.B targets regenerate each
// experiment's core measurement at a fixed size):
//
//	E1  BenchmarkIndexBuild      index construction per family
//	E2  BenchmarkQueryHit        per-engine latency, reachability-biased pairs
//	E3  BenchmarkQueryMiss       per-engine latency, uniform pairs
//	E4  BenchmarkEnforcement     policy decisions via the osn simulation
//	E5  BenchmarkAblation        look-ahead and W-table ablations
//	E6  BenchmarkClosureBuild    the transitive-closure baseline's build cost
//	F3/F5/F6 Benchmark{LineGraph,Interval,TwoHop} pipeline stage costs

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"reachac/internal/core"
	"reachac/internal/generate"
	"reachac/internal/graph"
	"reachac/internal/interval"
	"reachac/internal/joinindex"
	"reachac/internal/linegraph"
	"reachac/internal/osn"
	"reachac/internal/pathexpr"
	"reachac/internal/ring"
	"reachac/internal/scc"
	"reachac/internal/search"
	"reachac/internal/tclosure"
	"reachac/internal/twohop"
	"reachac/internal/workload"
)

const benchSize = 2000

func benchGraph(family string) *graph.Graph {
	opts := []generate.Option{generate.WithNodes(benchSize), generate.WithSeed(42), generate.WithAttrs()}
	if family == "follow" {
		opts = append(opts, generate.WithAcyclic())
	}
	return generate.MustBuild(generate.MustNew("osn", opts...))
}

func BenchmarkIndexBuild(b *testing.B) {
	for _, fam := range []string{"social", "follow"} {
		g := benchGraph(fam)
		b.Run(fam, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := joinindex.Build(g, joinindex.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchEngines(b *testing.B, g *graph.Graph) map[string]core.Evaluator {
	b.Helper()
	idx, err := joinindex.Build(g, joinindex.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return map[string]core.Evaluator{
		"online-bfs": search.New(g),
		"closure":    tclosure.New(g),
		"join-index": idx,
	}
}

func benchQueries() []workload.QuerySpec {
	return append(workload.DefaultCatalog(),
		workload.QuerySpec{Name: "deep-friends", Path: pathexpr.MustParse("friend+[1,4]")},
		workload.QuerySpec{Name: "transitive-friends", Path: pathexpr.MustParse("friend+[1,*]")},
	)
}

func benchLatency(b *testing.B, pairsFor func(*graph.Graph) []workload.Pair) {
	for _, fam := range []string{"social", "follow"} {
		g := benchGraph(fam)
		pairs := pairsFor(g)
		engines := benchEngines(b, g)
		for _, name := range []string{"online-bfs", "closure", "join-index"} {
			eval := engines[name]
			for _, q := range benchQueries() {
				b.Run(fam+"/"+name+"/"+q.Name, func(b *testing.B) {
					// Warm lazily-built closures outside the timer.
					if _, err := eval.Reachable(pairs[0].Owner, pairs[0].Requester, q.Path); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						p := pairs[i%len(pairs)]
						if _, err := eval.Reachable(p.Owner, p.Requester, q.Path); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

func BenchmarkQueryHit(b *testing.B) {
	benchLatency(b, func(g *graph.Graph) []workload.Pair {
		return workload.HitPairs(g, 128, 3, 1)
	})
}

func BenchmarkQueryMiss(b *testing.B) {
	benchLatency(b, func(g *graph.Graph) []workload.Pair {
		return workload.RandomPairs(g, 128, 2)
	})
}

func BenchmarkEnforcement(b *testing.B) {
	g := benchGraph("social")
	reqs := workload.Requests(g, 512, len(workload.DefaultCatalog()), 3)
	for name, eval := range benchEngines(b, g) {
		b.Run(name, func(b *testing.B) {
			net := osn.New(g, eval)
			if _, err := net.Populate(workload.DefaultCatalog(), 1, 4); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := net.Run(reqs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(reqs)), "decisions/op")
		})
	}
}

func BenchmarkAblation(b *testing.B) {
	// Look-ahead on/off on the follow family (where it prunes), deep query,
	// miss-heavy pairs.
	g := benchGraph("follow")
	pairs := workload.RandomPairs(g, 128, 5)
	deep := pathexpr.MustParse("friend+[1,*]")
	for name, opts := range map[string]joinindex.Options{
		"lookahead-on":  {},
		"lookahead-off": {DisableLookahead: true},
	} {
		idx, err := joinindex.Build(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := idx.Reachable(p.Owner, p.Requester, deep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// W-table on/off for the literal paper-join strategy, small graph.
	small := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(150), generate.WithSeed(42), generate.WithDegree(4)))
	q := pathexpr.MustParse("friend+[1]/colleague+[1]")
	smallPairs := workload.HitPairs(small, 32, 2, 6)
	for name, opts := range map[string]joinindex.Options{
		"wtable-on":  {Strategy: joinindex.EvalPaperJoin},
		"wtable-off": {Strategy: joinindex.EvalPaperJoin, DisableWTable: true},
	} {
		idx, err := joinindex.Build(small, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := smallPairs[i%len(smallPairs)]
				if _, err := idx.Reachable(p.Owner, p.Requester, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkClosureBuild(b *testing.B) {
	g := benchGraph("social")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := tclosure.New(g)
		e.MaterializeClosures()
	}
}

// Pipeline stage micro-benchmarks (figure machinery).

func BenchmarkLineGraphBuild(b *testing.B) {
	g := benchGraph("social")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		linegraph.Build(g, linegraph.Opts{})
	}
}

func BenchmarkIntervalLabel(b *testing.B) {
	g := benchGraph("follow")
	l := linegraph.Build(g, linegraph.Opts{})
	parts := scc.Tarjan(l.D)
	dag := scc.Condense(l.D, parts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The production configuration: per-vertex interval budget of 8.
		if _, err := interval.LabelBounded(dag, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoHopPruned(b *testing.B) {
	g := benchGraph("follow")
	l := linegraph.Build(g, linegraph.Opts{})
	parts := scc.Tarjan(l.D)
	dag := scc.Condense(l.D, parts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		twohop.Pruned(dag)
	}
}

func BenchmarkPathParse(b *testing.B) {
	const expr = `friend+[1,2]/colleague+[1]{age>=18, city="paris"}/parent-[1,*]`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pathexpr.Parse(expr); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAccessNetwork builds a shared-graph network with one policy and a
// pool of requester pairs for the serial/parallel CanAccess benchmarks.
func benchAccessNetwork(b *testing.B) (*Network, []workload.Pair) {
	b.Helper()
	g := benchGraph("social")
	n := FromGraph(g)
	owner, _ := n.UserID("u000010")
	if _, err := n.Share("r", owner, "friend+[1,2]"); err != nil {
		b.Fatal(err)
	}
	pairs := workload.HitPairs(g, 256, 2, 7)
	// Publish the snapshot and warm the plan cache outside the timer.
	if _, err := n.CanAccess("r", pairs[0].Requester); err != nil {
		b.Fatal(err)
	}
	return n, pairs
}

// BenchmarkCanAccessSerial is the single-goroutine baseline for
// BenchmarkCanAccessParallel: same network, same requester pool.
func BenchmarkCanAccessSerial(b *testing.B) {
	n, pairs := benchAccessNetwork(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.CanAccess("r", pairs[i%len(pairs)].Requester); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCanAccessParallel measures snapshot-isolated read throughput on
// a read-only workload: GOMAXPROCS goroutines hammering CanAccess against
// one published snapshot. With the global mutex this plateaued at the
// serial rate; snapshot isolation should scale near-linearly with cores
// (compare ns/op against BenchmarkCanAccessSerial).
func BenchmarkCanAccessParallel(b *testing.B) {
	n, pairs := benchAccessNetwork(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := n.CanAccess("r", pairs[i%len(pairs)].Requester); err != nil {
				// b.Fatal must not run on RunParallel workers.
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkCheckPathParallel is the audit-free companion of
// BenchmarkCanAccessParallel: CheckPath parses and evaluates the path
// expression without recording a decision, so this measures the search's
// own concurrent read throughput against one snapshot.
func BenchmarkCheckPathParallel(b *testing.B) {
	n, pairs := benchAccessNetwork(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p := pairs[i%len(pairs)]
			if _, err := n.CheckPath(p.Owner, p.Requester, "friend+[1,2]"); err != nil {
				// b.Fatal must not run on RunParallel workers.
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkCanAccessAll measures the batch API at a serving-layer
// check-batch (16), at 64 and over every member of the graph. The "loop"
// arm makes the same decisions one View.CanAccess at a time, the reference
// the batch must not lose to.
func BenchmarkCanAccessAll(b *testing.B) {
	n, _ := benchAccessNetwork(b)
	for _, size := range []int{16, 64, benchSize} {
		requesters := make([]UserID, size)
		for i := range requesters {
			requesters[i] = UserID(i)
		}
		b.Run(fmt.Sprintf("batch/n=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := n.CanAccessAll("r", requesters); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size), "decisions/op")
		})
		b.Run(fmt.Sprintf("loop/n=%d", size), func(b *testing.B) {
			v, err := n.View()
			if err != nil {
				b.Fatal(err)
			}
			defer v.Close()
			for i := 0; i < b.N; i++ {
				for _, r := range requesters {
					if _, err := v.CanAccess("r", r); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(size), "decisions/op")
		})
	}
}

// BenchmarkInterleavedMutateRead measures the snapshot republication cost
// under the worst-case production pattern: every mutation
// is immediately followed by a read, so each read pays a publication. The
// "delta" arm uses the default bounded delta log (the retired clone is
// fast-forwarded in O(Δ)); the "rebuild" arm disables the log, forcing a
// rebuilt publication every time: a clone of the master's changes since its
// base and a new search engine, on a 50k-member graph.
func BenchmarkInterleavedMutateRead(b *testing.B) {
	const size = 50000
	for _, mode := range []string{"delta", "rebuild"} {
		b.Run(fmt.Sprintf("%d/%s", size, mode), func(b *testing.B) {
			g := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(size), generate.WithSeed(7), generate.WithAttrs()))
			if mode == "rebuild" {
				g.SetDeltaLogLimit(-1)
			}
			n := FromGraph(g)
			owner, _ := n.UserID("u000010")
			if _, err := n.Share("r", owner, "friend+[1,2]"); err != nil {
				b.Fatal(err)
			}
			pairs := workload.HitPairs(g, 64, 2, 7)
			x, _ := n.UserID("u000001")
			y, _ := n.UserID("u000002")
			// Warm: publish twice so the delta arm's ping-pong has a
			// retired spare, and lazily built structures exist.
			for i := 0; i < 2; i++ {
				if err := n.Relate(x, y, "bench-touch"); err != nil {
					b.Fatal(err)
				}
				if _, err := n.CanAccess("r", pairs[0].Requester); err != nil {
					b.Fatal(err)
				}
				if err := n.Unrelate(x, y, "bench-touch"); err != nil {
					b.Fatal(err)
				}
				if _, err := n.CanAccess("r", pairs[0].Requester); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if i%2 == 0 {
					err = n.Relate(x, y, "bench-touch")
				} else {
					err = n.Unrelate(x, y, "bench-touch")
				}
				if err != nil {
					b.Fatal(err)
				}
				if _, err := n.CanAccess("r", pairs[i%len(pairs)].Requester); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchChurnNetwork is embed-churn's system at micro-benchmark scale: a
// 20 000-node ldbc graph of degree 8, with the given
// number of resources shared by successive members, published and warmed so
// that a spare exists. It returns the network and two members whose
// "bench-touch" edge the caller toggles to force graph publications.
func benchChurnNetwork(b *testing.B, resources int) (n *Network, x, y UserID) {
	b.Helper()
	top, err := generate.New("ldbc", generate.WithNodes(20000), generate.WithDegree(8), generate.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	g, err := generate.Build(top)
	if err != nil {
		b.Fatal(err)
	}
	n = FromGraph(g)
	err = n.Batch(func(tx *Tx) error {
		for i := 0; i < resources; i++ {
			if _, err := tx.Share(fmt.Sprintf("res%05d", i), UserID(i%20000), "friend+[1,2]"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	x, y = UserID(1), UserID(2)
	for i := 0; i < 4; i++ {
		benchToggle(b, n, x, y, i)
		if _, err := n.CanAccess("res00000", y); err != nil {
			b.Fatal(err)
		}
	}
	return n, x, y
}

// benchToggle adds (even i) or removes (odd i) the x → y "bench-touch" edge.
func benchToggle(b *testing.B, n *Network, x, y UserID, i int) {
	b.Helper()
	var err error
	if i%2 == 0 {
		err = n.Relate(x, y, "bench-touch")
	} else {
		err = n.Unrelate(x, y, "bench-touch")
	}
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPublishPinnedReader measures one graph publication (a toggle and
// the check that publishes it) beside a reader that closes its View and
// pins the published snapshot anew every 64 publications, as embed-churn's
// caller does every 2 048 operations. Each pinned snapshot parks in the
// spare pool once retired, so the cost stays the O(Δ) advance of another
// retired clone. rebuilt/op counts the publications that still rebuild:
// the two after each rebase of the master, about one in 7 000, and each
// clones only the master's changes since its base (a whole graph once, ~20
// ms here). 4.0–4.4 µs/op on a 2-core Xeon; it read 60–64 µs/op while edge
// lists kept their tombstones, so that every toggle of the one edge
// lengthened the list FindEdge scans, on the master and on every clone.
func BenchmarkPublishPinnedReader(b *testing.B) {
	n, x, y := benchChurnNetwork(b, 512)
	var v *View
	defer func() { v.Close() }()
	publish := func(i int) {
		if i%64 == 0 {
			if v != nil {
				v.Close()
			}
			var err error
			if v, err = n.View(); err != nil {
				b.Fatal(err)
			}
		}
		benchToggle(b, n, x, y, i)
		if _, err := n.CanAccess("res00000", y); err != nil {
			b.Fatal(err)
		}
	}
	// The first pinned reader costs a third clone: pay that rebuild before
	// timing.
	for i := 0; i < 2; i++ {
		publish(i)
	}
	before := n.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		publish(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(n.Stats().Delta(before).PublicationsRebuilt)/float64(b.N), "rebuilt/op")
}

// BenchmarkPublishPolicyChange measures one policy publication (a Share or
// the Revoke undoing it, and the check that publishes it) against the
// number of resources in the store. The frozen policy view is
// copy-on-write, so the cost follows what the mutation touched — one
// resource, one bucket — and not the store's size: 65 536 resources must
// stay within 4x of 512 (a deep-copied view was linear, over 100x).
func BenchmarkPublishPolicyChange(b *testing.B) {
	for _, resources := range []int{512, 65536} {
		b.Run(fmt.Sprintf("resources=%d", resources), func(b *testing.B) {
			n, _, y := benchChurnNetwork(b, resources)
			var rule string
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					var err error
					if rule, err = n.Share("res00007", 7, "colleague+[1]"); err != nil {
						b.Fatal(err)
					}
				} else if !n.Revoke("res00007", rule) {
					b.Fatal("revoke failed")
				}
				if _, err := n.CanAccess("res00000", y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchMutate compares k interleaved mutate/read cycles (k
// republications) against one Batch of k mutations followed by one read
// (one republication), on the online engine.
func BenchmarkBatchMutate(b *testing.B) {
	const size, k = 20000, 16
	setup := func(b *testing.B) (*Network, []workload.Pair, UserID, UserID) {
		b.Helper()
		g := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(size), generate.WithSeed(11)))
		n := FromGraph(g)
		owner, _ := n.UserID("u000010")
		if _, err := n.Share("r", owner, "friend+[1,2]"); err != nil {
			b.Fatal(err)
		}
		pairs := workload.HitPairs(g, 64, 2, 7)
		if _, err := n.CanAccess("r", pairs[0].Requester); err != nil {
			b.Fatal(err)
		}
		x, _ := n.UserID("u000001")
		y, _ := n.UserID("u000002")
		return n, pairs, x, y
	}
	b.Run("singles", func(b *testing.B) {
		n, pairs, x, y := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < k; j++ {
				label := fmt.Sprintf("bench-%d", j)
				var err error
				if i%2 == 0 {
					err = n.Relate(x, y, label)
				} else {
					err = n.Unrelate(x, y, label)
				}
				if err != nil {
					b.Fatal(err)
				}
				if _, err := n.CanAccess("r", pairs[j%len(pairs)].Requester); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		n, pairs, x, y := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := n.Batch(func(tx *Tx) error {
				for j := 0; j < k; j++ {
					label := fmt.Sprintf("bench-%d", j)
					if i%2 == 0 {
						if err := tx.Relate(x, y, label); err != nil {
							return err
						}
					} else if err := tx.Unrelate(x, y, label); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := n.CanAccess("r", pairs[i%len(pairs)].Requester); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScenarioMixes measures per-operation cost of the acbench
// workload mixes (internal/workload) against the embedded facade with the
// paper's join index — the same operation streams cmd/acbench drives at
// scale, here as fixed-op-count testing.B targets.
func BenchmarkScenarioMixes(b *testing.B) {
	base := benchGraph("social")
	specs := workload.Scenario{}.Resources(base, 16, 7)
	for _, sc := range workload.Scenarios() {
		mix := sc.Mix
		b.Run(mix.Name, func(b *testing.B) {
			n := FromGraph(base.Clone())
			if err := n.Batch(func(tx *Tx) error {
				for _, spec := range specs {
					if _, err := tx.Share(spec.Name, spec.Owner, spec.Paths...); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			gen := workload.NewGenerator(base, mix, workload.GenConfig{Resources: specs}, 11)
			rules := make([][]string, len(specs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := gen.Next()
				spec := specs[op.Resource]
				var err error
				switch op.Kind {
				case workload.OpCheck:
					_, err = n.CanAccess(spec.Name, op.Requester)
				case workload.OpCheckBatch:
					_, err = n.CanAccessAll(spec.Name, op.Requesters)
				case workload.OpAudience:
					_, err = n.Audience(spec.Name)
				case workload.OpRelate:
					err = n.Relate(op.From, op.To, op.RelType)
				case workload.OpUnrelate:
					err = n.Unrelate(op.From, op.To, op.RelType)
				case workload.OpShare:
					var rule string
					if rule, err = n.Share(spec.Name, op.Owner, op.Paths...); err == nil {
						rules[op.Resource] = append(rules[op.Resource], rule)
					}
				case workload.OpRevoke:
					if q := rules[op.Resource]; len(q) > 0 {
						n.Revoke(spec.Name, q[0])
						rules[op.Resource] = q[1:]
					}
				}
				if err != nil {
					b.Fatal(op.Kind, err)
				}
			}
		})
	}
}

// BenchmarkCanAccessZeroAlloc measures the warmed flat-search hot path on a
// bare engine: plan cache, CSR and pooled scratch all hot, so with -benchmem
// this reports 0 B/op and 0 allocs/op (the guarantee alloc_test.go enforces
// as a hard assertion).
func BenchmarkCanAccessZeroAlloc(b *testing.B) {
	g := benchGraph("social")
	e := search.New(g)
	g.CSR()
	p, err := pathexpr.Parse("friend+[1,2]")
	if err != nil {
		b.Fatal(err)
	}
	pairs := workload.HitPairs(g, 64, 2, 7)
	for i := 0; i < 8; i++ {
		if _, err := e.Reachable(pairs[i].Owner, pairs[i].Requester, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i%len(pairs)]
		if _, err := e.Reachable(pr.Owner, pr.Requester, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCanAccessManyRules measures a routed check — rule lookup, plan
// lookup, routing and the flat search — against the number of rules in the
// store. The two arms decide the
// same (owner, expression, requester) triples (see manyRulesNet), so all that
// differs is how many rules share the five expressions: ns/op at 8 192 rules
// must stay within 1.25x of 512, at 0 allocs/op. Plans used to be cached per
// rule pointer, 1 024 at most, and the larger arm recompiled its plan on
// seven checks in eight.
func BenchmarkCanAccessManyRules(b *testing.B) {
	for _, rules := range []int{512, 8192} {
		b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
			n, ids := manyRulesNet(b, rules)
			names := make([]core.ResourceID, rules)
			for i := range names {
				names[i] = core.ResourceID(fmt.Sprintf("res%05d", i))
			}
			decide := func(s *snapshot, i int) {
				if _, err := s.engine.Decide(names[i%rules], ids[300+i%512%7]); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := n.CanAccess("res00000", ids[300]); err != nil {
				b.Fatal(err)
			}
			s := n.snap.Load()
			for i := 0; i < 512; i++ {
				decide(s, i)
			}
			before := n.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decide(s, i)
			}
			b.StopTimer()
			b.ReportMetric(float64(n.Stats().Delta(before).PlanCompiles)/float64(b.N), "compiles/op")
		})
	}
}

// fixedFanOutGraph returns a graph in which every node has three outgoing
// friend edges (to the nodes 1, 7 and 13 after it), so that a search's
// neighbourhood has the same size whatever the graph's: friend+[1,3] visits
// at most 39 states.
func fixedFanOutGraph(nodes int) *graph.Graph {
	g := graph.New()
	for i := 0; i < nodes; i++ {
		g.MustAddNode(fmt.Sprintf("u%07d", i), nil)
	}
	for i := 0; i < nodes; i++ {
		for _, hop := range []int{1, 7, 13} {
			g.MustAddEdge(graph.NodeID(i), graph.NodeID((i+hop)%nodes), "friend")
		}
	}
	return g
}

// BenchmarkReachableByGraphSize measures one flat point query over a
// neighbourhood of fixed size (see fixedFanOutGraph) in graphs of 10k, 100k and 1M nodes,
// from owners spread over the whole graph. The search touches the same few
// states at every size, and so does the scratch reset, which un-marks what
// the search marked: ns/op must stay within 2x across the three sizes (what
// is left is cache misses in a larger CSR). Clearing the whole visited set
// per query cost O(nodes) on top: 24 KB at 10k nodes, 2.4 MB at 1M.
func BenchmarkReachableByGraphSize(b *testing.B) {
	for _, nodes := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("nodes=%dk", nodes/1000), func(b *testing.B) {
			g := fixedFanOutGraph(nodes)
			g.CSR()
			e := search.New(g)
			p := pathexpr.MustParse("friend+[1,3]")
			// 7919 is prime to every size, so owners walk the whole graph;
			// i+16 is never reached within three hops of 1, 7 or 13, so
			// every search runs to exhaustion.
			query := func(i int) {
				owner := i * 7919 % nodes
				if ok, err := e.Reachable(graph.NodeID(owner), graph.NodeID((owner+16)%nodes), p); err != nil || ok {
					b.Fatalf("Reachable = (%v, %v), want a miss", ok, err)
				}
			}
			for i := 0; i < 64; i++ {
				query(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query(i)
			}
		})
	}
}

// BenchmarkChurnByGraphSize measures one step of churn beside
// BenchmarkReachableByGraphSize, on the same graphs: a friend edge related
// or unrelated somewhere in the graph, the publication the next read pays
// for (a retired clone fast-forwarded through the two deltas it is behind,
// its CSR patched), and the check itself. None of the three
// touches more than the deltas and a 39-state neighbourhood, so ns/op and
// B/op should stay flat from 10k to 1M nodes (3.6–3.9 / 3.8–4.6 / 4.2–5.9
// µs on a 2-core Xeon; what is left is cache misses in larger tables, and a
// rebase of the master every ~1 100 steps at 10k nodes, ~11 000 at 100k,
// amortized). A CSR rebuilt per publication would grow with the graph, 3 ms
// at 100k nodes.
func BenchmarkChurnByGraphSize(b *testing.B) {
	for _, nodes := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("nodes=%dk", nodes/1000), func(b *testing.B) {
			n := FromGraph(fixedFanOutGraph(nodes))
			if _, err := n.Share("r", 0, "friend+[1,3]"); err != nil {
				b.Fatal(err)
			}
			// Pair k = i/2 is related on the even step and unrelated on the
			// odd one; 7919 is prime to every size, so the pairs walk the
			// whole graph, and no node has a friend 16 after it.
			step := func(i int) {
				from := UserID(i / 2 * 7919 % nodes)
				to := UserID((int(from) + 16) % nodes)
				var err error
				if i%2 == 0 {
					err = n.Relate(from, to, "friend")
				} else {
					err = n.Unrelate(from, to, "friend")
				}
				if err != nil {
					b.Fatal(err)
				}
				if _, err := n.CanAccess("r", UserID(20+i%16)); err != nil {
					b.Fatal(err)
				}
			}
			// Two publications rebuild (the cold start, then the first with
			// no retired clone to advance); pay them before timing.
			for i := 0; i < 4; i++ {
				step(i)
			}
			before := n.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 4; i < b.N+4; i++ {
				step(i)
			}
			b.StopTimer()
			d := n.Stats().Delta(before)
			b.ReportMetric(float64(d.PublicationsRebuilt)/float64(b.N), "rebuilt/op")
		})
	}
}

// BenchmarkCloneByGraphSize measures graph.Clone, what a rebuilt publication
// pays for its graph, on the graphs of BenchmarkReachableByGraphSize after a
// rebase and 1 000 toggles (250 friend edges spread over the whole graph,
// each related, unrelated, related and unrelated). A clone shares the base
// and copies the private part, which the toggles size alike at every graph
// size, so ns/op must stay within 2x across the three sizes; what grows is
// the CSR's dirty bitset, one bit per node. 55–58 / 47–54 / 77–87 µs on a
// 2-core Xeon; a deep copy was linear, 3.7 / 44 / 543 ms.
func BenchmarkCloneByGraphSize(b *testing.B) {
	for _, nodes := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("nodes=%dk", nodes/1000), func(b *testing.B) {
			g := fixedFanOutGraph(nodes)
			g.Rebase()
			friend := g.Label("friend")
			for i := 0; i < 1000; i++ {
				// No node has a friend 16 after it.
				from := graph.NodeID(i % 250 * 7919 % nodes)
				to := (from + 16) % graph.NodeID(nodes)
				var err error
				if i/250%2 == 0 {
					_, err = g.AddEdge(from, to, "friend")
				} else {
					err = g.RemoveEdge(g.FindEdge(from, to, friend))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			if g.NeedsRebase() {
				b.Fatal("the toggles crossed the overlay bound")
			}
			b.ReportAllocs()
			for b.Loop() {
				g.Clone()
			}
		})
	}
}

// BenchmarkNetworkFootprint reports the heap a network holds once FromGraph
// has wrapped a degree-8 ldbc graph and its first View has published a
// snapshot: the live heap after a collection less the live heap before the
// graph was generated, per relationship (B/edge) and per member (B/node) —
// two views of one total, not a split of it. ns/op is the generation,
// FromGraph and the publication. The -attrs arms generate the graph with
// generate.WithAttrs(), so that their B/node less the plain arms' is what
// the members' attribute tuples λ(v) cost.
func BenchmarkNetworkFootprint(b *testing.B) {
	for _, arm := range []struct {
		nodes int
		attrs bool
	}{{20_000, false}, {100_000, false}, {20_000, true}, {100_000, true}} {
		nodes, opts := arm.nodes, []generate.Option{generate.WithNodes(arm.nodes), generate.WithDegree(8), generate.WithSeed(1)}
		name := fmt.Sprintf("nodes=%dk", nodes/1000)
		if arm.attrs {
			opts, name = append(opts, generate.WithAttrs()), name+"-attrs"
		}
		b.Run(name, func(b *testing.B) {
			var heap uint64
			var edges int
			for b.Loop() {
				before := liveHeap()
				top, err := generate.New("ldbc", opts...)
				if err != nil {
					b.Fatal(err)
				}
				g, err := generate.Build(top)
				if err != nil {
					b.Fatal(err)
				}
				n := FromGraph(g)
				v, err := n.View()
				if err != nil {
					b.Fatal(err)
				}
				v.Close()
				heap, edges = liveHeap()-before, n.Graph().NumEdges()
				runtime.KeepAlive(n)
			}
			b.ReportMetric(float64(heap)/float64(edges), "B/edge")
			b.ReportMetric(float64(heap)/float64(nodes), "B/node")
		})
	}
}

// BenchmarkNodeByName measures resolving a member handle, which an HTTP
// check does once and a CheckBatch of 16 checks sixteen times: hits on
// members drawn uniformly, and misses on names of the same length that no
// member has, at 20k and 100k members, on a graph's base (the name index
// Rebase builds) and on its private part (the map of the nodes added since
// the base).
func BenchmarkNodeByName(b *testing.B) {
	for _, nodes := range []int{20_000, 100_000} {
		base, private := graph.New(), graph.New()
		for i := range nodes {
			base.MustAddNode(generate.UserName(i), nil)
			private.MustAddNode(generate.UserName(i), nil)
		}
		base.Rebase()
		rng := rand.New(rand.NewSource(1))
		hits, misses := make([]string, 1<<16), make([]string, 1<<16)
		for i := range hits {
			hits[i] = generate.UserName(rng.Intn(nodes))
			misses[i] = "x" + generate.UserName(rng.Intn(nodes))[1:]
		}
		for _, part := range []struct {
			name string
			g    *graph.Graph
		}{{"base", base}, {"private", private}} {
			for _, arm := range []struct {
				name  string
				names []string
				hit   bool
			}{{"hit", hits, true}, {"miss", misses, false}} {
				b.Run(fmt.Sprintf("%s/%s-%dk", part.name, arm.name, nodes/1000), func(b *testing.B) {
					b.ReportAllocs()
					i := 0
					for b.Loop() {
						if _, ok := part.g.NodeByName(arm.names[i]); ok != arm.hit {
							b.Fatalf("NodeByName(%q) found %v", arm.names[i], ok)
						}
						i = (i + 1) & (len(arm.names) - 1)
					}
				})
			}
		}
	}
}

// BenchmarkEdgeByID measures reading a base's edges, which the base
// stores in its CSR slabs, on the degree-8 ldbc graph at 20k and 100k
// members: Graph.Edge of random IDs (a read at the edge's out position and
// a search for the cell holding it), and one Edges pass in ID order (one
// walk of the cells into scratch records). ns/edge is per edge read.
func BenchmarkEdgeByID(b *testing.B) {
	for _, nodes := range []int{20_000, 100_000} {
		top, err := generate.New("ldbc", generate.WithNodes(nodes), generate.WithDegree(8), generate.WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		g, err := generate.Build(top)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		ids := make([]graph.EdgeID, 1<<16)
		for i := range ids {
			ids[i] = graph.EdgeID(rng.Intn(g.NumEdges()))
		}
		var sink graph.NodeID
		b.Run(fmt.Sprintf("random-%dk", nodes/1000), func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				sink += g.Edge(ids[i]).From
				i = (i + 1) & (len(ids) - 1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/edge")
		})
		b.Run(fmt.Sprintf("pass-%dk", nodes/1000), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				g.Edges(func(e graph.Edge) bool {
					sink += e.From
					return true
				})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(g.NumEdges())), "ns/edge")
		})
		runtime.KeepAlive(sink)
	}
}

// BenchmarkGraphLoad measures the bulk loads, which lay a graph out as a base
// in one pass through graph.Loader: generate.Build of the degree-8 ldbc graph
// the benchmark workloads start from, at 20k and 100k members, and
// graph.Read of the 20k graph's file, the path of graph files, state streams
// and checkpoint recovery. The stream arms run the same generator into an
// emit that does nothing, so the generator's share of a build reads apart
// from the Loader's. ns/edge and allocs/edge are per relationship loaded.
func BenchmarkGraphLoad(b *testing.B) {
	ldbc := func(b *testing.B, nodes int) generate.Topology {
		top, err := generate.New("ldbc", generate.WithNodes(nodes), generate.WithDegree(8), generate.WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		return top
	}
	load := func(b *testing.B, edges int, fn func() error) {
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for b.Loop() {
			if err := fn(); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		loaded := float64(b.N) * float64(edges)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/loaded, "ns/edge")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/loaded, "allocs/edge")
	}
	for _, nodes := range []int{20_000, 100_000} {
		top := ldbc(b, nodes)
		_, edges, err := generate.Count(top)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("build-%dk", nodes/1000), func(b *testing.B) {
			load(b, edges, func() error {
				_, err := generate.Build(top)
				return err
			})
		})
		b.Run(fmt.Sprintf("stream-%dk", nodes/1000), func(b *testing.B) {
			load(b, edges, func() error {
				return top.Stream(func(generate.Op) error { return nil })
			})
		})
	}
	b.Run("read-20k", func(b *testing.B) {
		g, err := generate.Build(ldbc(b, 20_000))
		if err != nil {
			b.Fatal(err)
		}
		var file bytes.Buffer
		if err := g.Write(&file); err != nil {
			b.Fatal(err)
		}
		load(b, g.NumEdges(), func() error {
			_, err := graph.Read(bytes.NewReader(file.Bytes()))
			return err
		})
	})
}

// BenchmarkDurableImport makes a fresh durable network (SyncNever) holding
// the degree-8 ldbc graph, two ways. The tx arm replays the built 20k graph
// as one Batch, one AddUser per member and one Relate per relationship, as
// the repo benchmark's HTTP workloads set up; an iteration runs the Batch
// and the checkpoint its record group triggers (Checkpoint waits for it).
// The create arms time the whole path from the topology: generate.Build,
// then Create writing the graph as the first checkpoint. There is no
// tx-100k arm: its record group (~56 MB) passes wal.MaxRecordSize. ns/edge,
// B/edge and allocs/edge are per relationship imported, and retained-MB is
// the heap the open network holds afterwards.
func BenchmarkDurableImport(b *testing.B) {
	for _, c := range []struct {
		name   string
		nodes  int
		create bool
	}{
		{"tx-20k", 20000, false},
		{"create-20k", 20000, true},
		{"create-100k", 100000, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			top, err := generate.New("ldbc", generate.WithNodes(c.nodes), generate.WithDegree(8), generate.WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			var g *graph.Graph
			if !c.create {
				if g, err = generate.Build(top); err != nil {
					b.Fatal(err)
				}
			}
			var allocated, mallocs, retained uint64
			var edges int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir, err := os.MkdirTemp(b.TempDir(), "import-")
				if err != nil {
					b.Fatal(err)
				}
				before := liveHeap()
				var n *Network
				if !c.create {
					if n, err = Open(dir, WithSync(SyncNever)); err != nil {
						b.Fatal(err)
					}
				}
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				b.StartTimer()
				if c.create {
					var built *graph.Graph
					if built, err = generate.Build(top); err == nil {
						n, err = Create(dir, built, WithSync(SyncNever))
					}
				} else {
					err = importTx(n, g)
				}
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&m1)
				allocated += m1.TotalAlloc - m0.TotalAlloc
				mallocs += m1.Mallocs - m0.Mallocs
				retained = liveHeap() - before
				edges = n.NumRelationships()
				if err := n.Close(); err != nil {
					b.Fatal(err)
				}
				os.RemoveAll(dir)
				b.StartTimer()
			}
			imported := float64(b.N) * float64(edges)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/imported, "ns/edge")
			b.ReportMetric(float64(allocated)/imported, "B/edge")
			b.ReportMetric(float64(mallocs)/imported, "allocs/edge")
			b.ReportMetric(float64(retained)/1e6, "retained-MB")
		})
	}
}

// importTx replays g into the durable network n as one Batch and waits for
// the checkpoint its record group triggers.
func importTx(n *Network, g *graph.Graph) error {
	err := n.Batch(func(tx *Tx) error {
		var err error
		g.Nodes(func(node graph.Node) bool {
			_, err = tx.AddUser(node.Name)
			return err == nil
		})
		if err != nil {
			return err
		}
		g.Edges(func(e graph.Edge) bool {
			err = tx.Relate(e.From, e.To, g.LabelName(e.Label))
			return err == nil
		})
		return err
	})
	if err != nil {
		return err
	}
	return n.Checkpoint()
}

// liveHeap returns the heap in use after two collections: what an earlier
// iteration left is partly released by finalizers the first only queues.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkAudienceAfterMutation measures the audience read after a
// mutation, which forces a snapshot republication per iteration: a retired
// clone fast-forwarded through the deltas, then one product search per rule
// condition, since nothing carries an audience across publications.
func BenchmarkAudienceAfterMutation(b *testing.B) {
	g := benchGraph("social")
	n := FromGraph(g)
	owner, _ := n.UserID("u000010")
	if _, err := n.Share("r", owner, "friend+[1,2]"); err != nil {
		b.Fatal(err)
	}
	peer, _ := n.UserID("u000011")
	if _, err := n.Audience("r"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if i%2 == 0 {
			err = n.Relate(owner, peer, "colleague")
		} else {
			err = n.Unrelate(owner, peer, "colleague")
		}
		if err != nil {
			b.Fatal(err)
		}
		if _, err := n.Audience("r"); err != nil {
			b.Fatal(err)
		}
	}
}

// deepCatalog is the repository benchmark's embed-deep catalog: policies
// whose evaluation is a real multi-hop search.
var deepCatalog = []string{"friend+[1,3]", "friend+[1,4]", "colleague+[1]/friend+[1,2]",
	"friend+[1,2]/colleague+[1]/friend+[1]", "friend-[1]/colleague+[1]"}

// BenchmarkReachableDeepCatalog measures one point query of deepCatalog on
// a 20 000-node ldbc graph of degree 8, in an allow arm and a deny arm of
// 4 096 (owner, expression, requester) triples each, drawn as embed-deep
// draws its checks: owners of out-degree at least 8, half the requesters at
// the end of a walk of one to four out-edges and half anywhere. The map
// kernel's Witness sorts each triple into its arm, so the arms do not depend
// on the search measured. The deny arm is the deep tail deny-by-default
// makes common: a search from one end explores its whole product ball, one
// from both ends stops once its layers cover the pattern.
func BenchmarkReachableDeepCatalog(b *testing.B) {
	top, err := generate.New("ldbc", generate.WithNodes(20000), generate.WithDegree(8), generate.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	g, err := generate.Build(top)
	if err != nil {
		b.Fatal(err)
	}
	csr := g.CSR()
	e := search.New(g)
	paths := make([]*pathexpr.Path, len(deepCatalog))
	for i, expr := range deepCatalog {
		paths[i] = pathexpr.MustParse(expr)
	}
	type triple struct {
		owner, requester graph.NodeID
		p                *pathexpr.Path
	}
	const perArm = 4096
	arms := map[bool][]triple{}
	rng := rand.New(rand.NewSource(1))
	for len(arms[true]) < perArm || len(arms[false]) < perArm {
		owner := graph.NodeID(rng.Intn(g.NumNodes()))
		if csr.OutDegree(owner) < 8 {
			continue
		}
		req := graph.NodeID(rng.Intn(g.NumNodes()))
		if rng.Intn(2) == 0 {
			req = owner
			for steps := 1 + rng.Intn(4); steps > 0; steps-- {
				var outs []graph.NodeID
				g.OutEdges(req, func(edge graph.Edge) bool {
					outs = append(outs, edge.To)
					return true
				})
				if len(outs) == 0 {
					break
				}
				req = outs[rng.Intn(len(outs))]
			}
		}
		t := triple{owner, req, paths[rng.Intn(len(paths))]}
		if _, ok, err := e.Witness(t.owner, t.requester, t.p); err != nil {
			b.Fatal(err)
		} else if len(arms[ok]) < perArm {
			arms[ok] = append(arms[ok], t)
		}
	}
	for _, arm := range []struct {
		name  string
		allow bool
	}{{"allow", true}, {"deny", false}} {
		b.Run(arm.name, func(b *testing.B) {
			ts := arms[arm.allow]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := ts[i%len(ts)]
				if ok, err := e.Reachable(t.owner, t.requester, t.p); err != nil || ok != arm.allow {
					b.Fatalf("Reachable = (%v, %v), the map kernel says %v", ok, err, arm.allow)
				}
			}
		})
	}
}

// BenchmarkShardExpand measures one shard's expand call, the unit of a
// sharded sweep, on a 20 000-node ldbc graph of degree 8 held whole by one
// view. Each op seeds one owner's start state at the shard that owns it and
// expands one expression of the repository benchmark's deep catalog. With
// one shard the call exhausts the search locally; with four it retires every
// state generated on another shard's user as an exit. results/s counts the
// accepted members and exits the calls return.
func BenchmarkShardExpand(b *testing.B) {
	top, err := generate.New("ldbc", generate.WithNodes(20000), generate.WithDegree(8), generate.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	g, err := generate.Build(top)
	if err != nil {
		b.Fatal(err)
	}
	n := FromGraph(g)
	defer n.Close()
	v, err := n.View()
	if err != nil {
		b.Fatal(err)
	}
	defer v.Close()
	paths := deepCatalog
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			rg, err := ring.New(shards, 0)
			if err != nil {
				b.Fatal(err)
			}
			// 7919 is prime to 20 000, so seeds walk the whole graph.
			expand := func(i int) int {
				seed, _ := v.UserName(UserID(i * 7919 % 20000))
				resp, err := v.ShardExpand(ShardExpandRequest{
					Path: paths[i%len(paths)], Shards: shards, Self: rg.Owner(seed),
					States: []ShardState{{Name: seed}},
				})
				if err != nil {
					b.Fatal(err)
				}
				return len(resp.Accepted) + len(resp.Exits)
			}
			for i := 0; i < 16; i++ {
				expand(i)
			}
			results := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results += expand(i)
			}
			b.ReportMetric(float64(results)/b.Elapsed().Seconds(), "results/s")
		})
	}
}
