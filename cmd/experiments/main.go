// Command experiments runs the performance evaluation the paper defers to
// future work (§5), producing the tables recorded in EXPERIMENTS.md:
//
//	E1  index construction cost vs graph size
//	E2  query latency on reachability-biased ("hit") pairs
//	E3  query latency on uniform ("miss"-heavy) pairs
//	E4  policy enforcement throughput (OSN simulation)
//	E5  ablations: W-table pruning, reachability look-ahead
//	E6  space: join index vs per-label closure matrices vs raw graph
//	E7  comparison with the Carminati et al. rule-based baseline
//	E8  snapshot-isolated concurrent access-check throughput
//
// Usage:
//
//	experiments [-run all|E1|...|E8] [-full] [-seed N]
//
// -full extends the size sweep to 25k and 50k members (slower).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"time"

	"reachac"
	"reachac/internal/benchutil"
	"reachac/internal/carminati"
	"reachac/internal/core"
	"reachac/internal/generate"
	"reachac/internal/graph"
	"reachac/internal/joinindex"
	"reachac/internal/osn"
	"reachac/internal/pathexpr"
	"reachac/internal/search"
	"reachac/internal/tclosure"
	"reachac/internal/workload"
)

var (
	seed = flag.Int64("seed", 42, "workload and generator seed")
	full = flag.Bool("full", false, "extend the size sweep to 25k and 50k members")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	run := flag.String("run", "all", "experiment to run: all, E1..E6")
	flag.Parse()

	exps := map[string]func(){
		"E1": e1, "E2": e2, "E3": e3, "E4": e4, "E5": e5, "E6": e6, "E7": e7, "E8": e8,
	}
	if *run == "all" {
		for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"} {
			exps[id]()
			fmt.Println()
		}
		return
	}
	f, ok := exps[*run]
	if !ok {
		log.Fatalf("unknown experiment %q (have all, E1..E8)", *run)
	}
	f()
}

func sizes() []int {
	s := []int{1000, 5000, 10000}
	if *full {
		s = append(s, 25000, 50000)
	}
	return s
}

// makeGraph builds one of the two graph families: "social" (reciprocal
// friendship, cyclic — the line graph condenses into a few giant SCCs) and
// "follow" (hierarchy-oriented, acyclic — the paper's pruning structures
// keep full resolution).
func makeGraph(n int, family string) *graph.Graph {
	opts := []generate.Option{generate.WithNodes(n), generate.WithSeed(*seed), generate.WithAttrs()}
	if family == "follow" {
		opts = append(opts, generate.WithAcyclic())
	}
	return generate.MustBuild(generate.MustNew("osn", opts...))
}

var families = []string{"social", "follow"}

// famSizes caps the follow family at 10k members: its wide line DAG makes
// the 2-hop construction markedly more expensive (an E1 finding in itself),
// so the -full extension applies to the social family only.
func famSizes(fam string) []int {
	s := sizes()
	if fam == "follow" {
		out := s[:0:0]
		for _, n := range s {
			if n <= 10000 {
				out = append(out, n)
			}
		}
		return out
	}
	return s
}

// deepCatalog extends the default policy shapes with the deep and unbounded
// queries where online search must explore a large cone.
func deepCatalog() []workload.QuerySpec {
	cat := workload.DefaultCatalog()
	cat = append(cat,
		workload.QuerySpec{Name: "deep-friends", Path: pathexpr.MustParse("friend+[1,4]")},
		workload.QuerySpec{Name: "transitive-friends", Path: pathexpr.MustParse("friend+[1,*]")},
	)
	return cat
}

// e1 reports index construction cost per graph size and family.
func e1() {
	fmt.Println("E1: cluster-based join index construction vs graph size")
	tbl := benchutil.NewTable("family", "|V|", "|E|", "line nodes", "line edges", "SCCs",
		"2-hop size", "centers", "intervals", "build", "est. size")
	for _, fam := range families {
		for _, n := range famSizes(fam) {
			g := makeGraph(n, fam)
			idx, err := joinindex.Build(g, joinindex.Options{})
			if err != nil {
				log.Fatal(err)
			}
			s := idx.Stats()
			tbl.AddRow(
				fam,
				benchutil.Count(g.NumNodes()), benchutil.Count(g.NumEdges()),
				benchutil.Count(s.LineNodes), benchutil.Count(s.LineEdges),
				benchutil.Count(s.SCCs), benchutil.Count(s.CoverSize),
				benchutil.Count(s.Centers), benchutil.Count(s.IntervalCount),
				benchutil.Dur(s.TotalTime), benchutil.Bytes(s.IndexBytes()),
			)
		}
	}
	tbl.Fprint(os.Stdout)
}

// engineSet builds the engines compared in E2/E3. The closure engine is
// skipped above 10k members (its matrices are the point of E6).
func engineSet(g *graph.Graph) []struct {
	name string
	eval core.Evaluator
} {
	var out []struct {
		name string
		eval core.Evaluator
	}
	out = append(out, struct {
		name string
		eval core.Evaluator
	}{"online-bfs", search.New(g)})
	if g.NumNodes() <= 10000 {
		out = append(out, struct {
			name string
			eval core.Evaluator
		}{"closure", tclosure.New(g)})
	}
	idx, err := joinindex.Build(g, joinindex.Options{})
	if err != nil {
		log.Fatal(err)
	}
	out = append(out, struct {
		name string
		eval core.Evaluator
	}{"join-index", idx})
	return out
}

func latencyTable(title string, pairsFor func(*graph.Graph) []workload.Pair) {
	fmt.Println(title)
	catalog := deepCatalog()
	tbl := benchutil.NewTable("family", "|V|", "query", "online-bfs", "closure", "join-index")
	for _, fam := range families {
		for _, n := range famSizes(fam) {
			g := makeGraph(n, fam)
			engines := engineSet(g)
			pairs := pairsFor(g)
			for _, q := range catalog {
				row := []string{fam, benchutil.Count(n), q.Name}
				cells := map[string]string{"online-bfs": "—", "closure": "—", "join-index": "—"}
				for _, e := range engines {
					// Warm up lazily-built structures (per-label closures)
					// so steady-state latency is measured.
					for _, p := range pairs[:5] {
						if _, err := e.eval.Reachable(p.Owner, p.Requester, q.Path); err != nil {
							log.Fatal(err)
						}
					}
					start := time.Now()
					hits := 0
					for _, p := range pairs {
						ok, err := e.eval.Reachable(p.Owner, p.Requester, q.Path)
						if err != nil {
							log.Fatal(err)
						}
						if ok {
							hits++
						}
					}
					per := time.Since(start) / time.Duration(len(pairs))
					cells[e.name] = fmt.Sprintf("%s (%d%%)", benchutil.Dur(per), hits*100/len(pairs))
				}
				row = append(row, cells["online-bfs"], cells["closure"], cells["join-index"])
				tbl.AddRow(row...)
			}
		}
	}
	tbl.Fprint(os.Stdout)
	fmt.Println("  (mean latency per decision; parenthesized: fraction of pairs granted)")
}

func e2() {
	latencyTable("E2: query latency, reachability-biased (hit) pairs",
		func(g *graph.Graph) []workload.Pair { return workload.HitPairs(g, 200, 3, *seed+1) })
}

func e3() {
	latencyTable("E3: query latency, uniform (miss-heavy) pairs",
		func(g *graph.Graph) []workload.Pair { return workload.RandomPairs(g, 200, *seed+2) })
}

func e4() {
	fmt.Println("E4: enforcement throughput (OSN simulation, 10k members, social family)")
	g := makeGraph(10000, "social")
	reqs := workload.Requests(g, 2000, len(workload.DefaultCatalog()), *seed+3)
	tbl := benchutil.NewTable("engine", "decisions", "allowed", "denied", "throughput")
	for _, e := range engineSet(g) {
		net := osn.New(g, e.eval)
		if _, err := net.Populate(workload.DefaultCatalog(), 1, *seed+4); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := net.Run(reqs)
		if err != nil {
			log.Fatal(err)
		}
		el := time.Since(start)
		tbl.AddRow(e.name, benchutil.Count(res.Decided), benchutil.Count(res.Allowed),
			benchutil.Count(res.Denied),
			fmt.Sprintf("%s dec/s", benchutil.Count(int(float64(res.Decided)/el.Seconds()))))
	}
	tbl.Fprint(os.Stdout)
}

func e5() {
	fmt.Println("E5: ablations")
	// Look-ahead ablation: anchored evaluation with and without
	// reachability pruning, miss-heavy workload (where pruning matters).
	fmt.Println("\nE5a: join-index look-ahead pruning (miss-heavy pairs)")
	tbl := benchutil.NewTable("family", "|V|", "query", "with look-ahead", "without")
	for _, fam := range families {
		for _, n := range famSizes(fam) {
			g := makeGraph(n, fam)
			with, err := joinindex.Build(g, joinindex.Options{})
			if err != nil {
				log.Fatal(err)
			}
			without, err := joinindex.Build(g, joinindex.Options{DisableLookahead: true})
			if err != nil {
				log.Fatal(err)
			}
			pairs := workload.RandomPairs(g, 200, *seed+5)
			for _, q := range deepCatalog()[5:] { // the deep/unbounded shapes
				mean := func(idx *joinindex.Index) time.Duration {
					start := time.Now()
					for _, p := range pairs {
						if _, err := idx.Reachable(p.Owner, p.Requester, q.Path); err != nil {
							log.Fatal(err)
						}
					}
					return time.Since(start) / time.Duration(len(pairs))
				}
				tbl.AddRow(fam, benchutil.Count(n), q.Name, benchutil.Dur(mean(with)), benchutil.Dur(mean(without)))
			}
		}
	}
	tbl.Fprint(os.Stdout)

	// W-table ablation: the paper-join strategy with and without W-table
	// pruning, on small graphs (the strategy's intermediate results grow
	// quickly — itself a finding).
	fmt.Println("\nE5b: paper-join W-table pruning (small graphs, friends-of-friends query)")
	tbl2 := benchutil.NewTable("|V|", "with W-table", "without", "note")
	for _, n := range []int{100, 200, 400} {
		g := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(n), generate.WithSeed(*seed), generate.WithDegree(4)))
		q := workload.DefaultCatalog()[1] // friend+[1,2]
		pairs := workload.HitPairs(g, 30, 2, *seed+6)
		mean := func(opts joinindex.Options) (string, string) {
			opts.Strategy = joinindex.EvalPaperJoin
			idx, err := joinindex.Build(g, opts)
			if err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			for _, p := range pairs {
				if _, err := idx.Reachable(p.Owner, p.Requester, q.Path); err != nil {
					return "—", "intermediate blowup (" + err.Error() + ")"
				}
			}
			return benchutil.Dur(time.Since(start) / time.Duration(len(pairs))), ""
		}
		withT, note1 := mean(joinindex.Options{})
		withoutT, note2 := mean(joinindex.Options{DisableWTable: true})
		note := note1
		if note == "" {
			note = note2
		}
		tbl2.AddRow(benchutil.Count(n), withT, withoutT, note)
	}
	tbl2.Fprint(os.Stdout)
}

func e6() {
	fmt.Println("E6: space — join index vs per-label closure vs raw graph")
	tbl := benchutil.NewTable("|V|", "|E|", "graph", "join index", "closure matrices", "closure build")
	for _, n := range sizes() {
		g := makeGraph(n, "social")
		idx, err := joinindex.Build(g, joinindex.Options{})
		if err != nil {
			log.Fatal(err)
		}
		graphBytes := g.NumEdges()*16 + g.NumNodes()*24
		closureCell, closureBuild := "(skipped > 10k)", "—"
		if n <= 10000 {
			tc := tclosure.New(g)
			start := time.Now()
			tc.MaterializeClosures()
			closureBuild = benchutil.Dur(time.Since(start))
			closureCell = benchutil.Bytes(tc.Bytes())
		}
		tbl.AddRow(benchutil.Count(n), benchutil.Count(g.NumEdges()),
			benchutil.Bytes(graphBytes), benchutil.Bytes(idx.Stats().IndexBytes()),
			closureCell, closureBuild)
	}
	tbl.Fprint(os.Stdout)
}

// e7 compares against the Carminati et al. baseline the paper discusses in
// §4: (a) which catalog policies each model can express, and (b) measured
// agreement + latency on the shared (trust-free, single-type, fixed-radius)
// fragment.
func e7() {
	fmt.Println("E7: comparison with the Carminati et al. rule-based baseline (§4)")
	fmt.Println("\nE7a: expressiveness of the policy catalog")
	tbl := benchutil.NewTable("policy", "path model", "carminati model", "why")
	rows := [][4]string{
		{"friends", "yes", "yes", "single type, radius 1"},
		{"friends-of-friends", "yes", "yes", "single type, radius 2"},
		{"colleagues-of-friends", "yes", "no", "ordered multi-type sequence"},
		{"considers-me-friend", "yes", "no", "incoming direction"},
		{"children-network", "yes", "no", "multi-type sequence"},
		{"adult friends (age>=18)", "yes", "no", "attribute predicate"},
		{"friends with trust>=0.5", "no", "yes", "trust propagation (weights uninterpreted in the path language)"},
	}
	for _, r := range rows {
		tbl.AddRow(r[0], r[1], r[2], r[3])
	}
	tbl.Fprint(os.Stdout)

	fmt.Println("\nE7b: shared fragment — agreement and latency, 5k social graph")
	g := makeGraph(5000, "social")
	ce := carminati.New(g)
	se := search.New(g)
	pairs := workload.HitPairs(g, 300, 3, *seed+7)
	tbl2 := benchutil.NewTable("radius", "agree", "grant rate", "carminati", "path-model (online)")
	for _, d := range []int{1, 2, 3} {
		rule := carminati.Rule{Type: "friend", MaxDepth: d}
		p := pathexpr.MustParse(rule.AsPathExpr())
		agree, grants := 0, 0
		start := time.Now()
		for _, pr := range pairs {
			ok, _, err := ce.Decide(pr.Owner, pr.Requester, rule)
			if err != nil {
				log.Fatal(err)
			}
			if ok {
				grants++
			}
			want, err := se.Reachable(pr.Owner, pr.Requester, p)
			if err != nil {
				log.Fatal(err)
			}
			if ok == want {
				agree++
			}
		}
		carmTime := time.Since(start) / time.Duration(len(pairs)) / 2 // half of the loop was the oracle
		start = time.Now()
		for _, pr := range pairs {
			if _, err := se.Reachable(pr.Owner, pr.Requester, p); err != nil {
				log.Fatal(err)
			}
		}
		pathTime := time.Since(start) / time.Duration(len(pairs))
		tbl2.AddRow(fmt.Sprintf("%d", d),
			fmt.Sprintf("%d/%d", agree, len(pairs)),
			fmt.Sprintf("%d%%", grants*100/len(pairs)),
			benchutil.Dur(carmTime), benchutil.Dur(pathTime))
	}
	tbl2.Fprint(os.Stdout)
}

// e8 measures concurrent access-check throughput through the facade: W
// worker goroutines share one snapshot-isolated network and hammer reads.
// CanAccess is a full decision (rule lookup, evaluation, audit record);
// CheckPath parses its expression and evaluates it, without the audit. With
// the old global mutex both columns plateaued at the 1-worker rate; snapshot
// isolation scales them with GOMAXPROCS.
func e8() {
	fmt.Println("E8: snapshot-isolated concurrent access-check throughput, 5k social graph, join-index engine")
	g := makeGraph(5000, "social")
	net := reachac.FromGraph(g)
	owner, _ := net.UserID("u000010")
	if _, err := net.Share("r", owner, "friend+[1,2]"); err != nil {
		log.Fatal(err)
	}
	if err := net.UseEngine(reachac.Index); err != nil {
		log.Fatal(err)
	}
	pairs := workload.HitPairs(g, 512, 2, *seed+9)
	// Publish the snapshot and warm the plan cache outside the timers.
	for _, pr := range pairs {
		if _, err := net.CanAccess("r", pr.Requester); err != nil {
			log.Fatal(err)
		}
	}

	throughput := func(workers, totalOps int, op func(i int) error) float64 {
		per := totalOps / workers
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if err := op(w*per + i); err != nil {
						log.Fatal(err)
					}
				}
			}(w)
		}
		wg.Wait()
		return float64(per*workers) / time.Since(start).Seconds()
	}

	tbl := benchutil.NewTable("workers", "CanAccess/s", "CheckPath/s", "CanAccessAll dec/s")
	allReqs := make([]reachac.UserID, g.NumNodes())
	for i := range allReqs {
		allReqs[i] = reachac.UserID(i)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		if workers > 2*runtime.GOMAXPROCS(0) {
			break
		}
		decided := throughput(workers, 40000, func(i int) error {
			_, err := net.CanAccess("r", pairs[i%len(pairs)].Requester)
			return err
		})
		reached := throughput(workers, 40000, func(i int) error {
			p := pairs[i%len(pairs)]
			_, err := net.CheckPath(p.Owner, p.Requester, "friend+[1,2]")
			return err
		})
		// CanAccessAll sizes its own worker pool from GOMAXPROCS; report it
		// once on the first row.
		batch := ""
		if workers == 1 {
			start := time.Now()
			const laps = 20
			for l := 0; l < laps; l++ {
				if _, err := net.CanAccessAll("r", allReqs); err != nil {
					log.Fatal(err)
				}
			}
			batch = benchutil.Count(int(float64(laps*len(allReqs)) / time.Since(start).Seconds()))
		}
		tbl.AddRow(fmt.Sprintf("%d", workers),
			benchutil.Count(int(decided)), benchutil.Count(int(reached)), batch)
	}
	tbl.Fprint(os.Stdout)
	fmt.Printf("\nGOMAXPROCS=%d; worker counts beyond 2x available cores are skipped.\n", runtime.GOMAXPROCS(0))
}
