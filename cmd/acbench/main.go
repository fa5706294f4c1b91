// Command acbench is the repo's workload/load-generation benchmark: it
// drives mixed-operation scenarios (internal/workload's registry) through
// a closed-loop or paced worker pool (internal/loadgen) against either
// the embedded reachac facade or a real acserverd over HTTP, and writes a
// machine-readable artifact (BENCH_acbench.json) with per-scenario
// throughput, latency percentiles, error/shed counts and engine/WAL
// counter deltas — the perf trajectory successive PRs are compared on.
//
// Run benchmarks:
//
//	acbench -mode embedded -engines online,index -scenarios all \
//	        -nodes 2000 -duration 3s -out BENCH_acbench.json
//	acbench -mode http                   # self-hosts a real serving stack
//	acbench -mode http -addr host:8708   # drives an external daemon
//	acbench -mode both -append           # accumulate both into one artifact
//
// Scaling sweeps: -nodes takes a comma list and -topology selects the
// generator family, so one run records a node-count scaling curve
// (-topology ldbc -nodes 10000,100000,1000000). Embedded cells at or
// above -stream-min nodes build the graph per cell and hand it to the
// network, instead of sharing one graph that every cell clones, so no
// more than one copy of a large graph is alive.
//
// Open-loop latency-under-load: -rates sweeps fixed arrival rates
// (-rates 2000,10000,40000), recording, per rate, the latency
// distribution at that load and the shed/error pressure — the
// latency-under-load curve closed-loop throughput numbers cannot show.
//
// Compare against a committed baseline (the CI regression gate):
//
//	acbench -compare bench/baseline.json -in BENCH_acbench.json -max-regress 0.25
//
// Comparison normalizes throughput by each artifact's calibration score
// (a fixed CPU reference loop timed at startup), so a baseline recorded
// on one machine transfers to a differently-sized CI runner.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"reachac"
	"reachac/internal/benchutil"
	"reachac/internal/generate"
	"reachac/internal/graph"
	"reachac/internal/loadgen"
	"reachac/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("acbench: ")
	var (
		mode        = flag.String("mode", "embedded", "benchmark mode: embedded, http, or both")
		addr        = flag.String("addr", "", "drive an external acserverd at this address (http mode; default self-hosts one per engine)")
		engines     = flag.String("engines", "online,index", "comma-separated engine kinds, or 'all'")
		scenarios   = flag.String("scenarios", "all", "comma-separated scenario names from the workload registry, or 'all' (have: "+strings.Join(workload.Names(), ", ")+")")
		nodesCSV    = flag.String("nodes", "2000", "social graph size, or a comma list for a scaling sweep")
		topology    = flag.String("topology", "osn", "topology family: "+strings.Join(generate.Kinds(), ", "))
		communities = flag.Int("communities", 0, "planted community count (0 = per-family default)")
		degree      = flag.Int("degree", 8, "average out-degree of the generated graph")
		streamMin   = flag.Int("stream-min", 200_000, "node count at which embedded cells build the graph per cell instead of cloning one shared graph")
		resources   = flag.Int("resources", 48, "pre-shared resources per scenario")
		workers     = flag.Int("workers", 8, "load-generating workers")
		duration    = flag.Duration("duration", 3*time.Second, "measured window per scenario")
		warmup      = flag.Duration("warmup", 500*time.Millisecond, "warmup before the measured window")
		rate        = flag.Float64("rate", 0, "open-loop target ops/sec across all workers (0 = closed loop)")
		ratesCSV    = flag.String("rates", "", "comma list of open-loop arrival rates to sweep (overrides -rate)")
		batch       = flag.Int("batch", 16, "check-batch requesters per request")
		zipf        = flag.Float64("zipf", 0, "requester/resource popularity skew exponent, must be > 1 (0 = workload default 1.2)")
		shardsCSV   = flag.String("shards", "", "comma-separated shard counts; embedded mode routes each cell through an in-process shard router (http mode: labels the cells of an external acshardd)")
		seed        = flag.Int64("seed", 1, "workload seed")
		syncMode    = flag.String("sync", "interval", "self-hosted server WAL fsync policy: always, interval, never")
		out         = flag.String("out", "BENCH_acbench.json", "artifact output path")
		appendArt   = flag.Bool("append", false, "merge results into an existing artifact at -out instead of replacing it")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
		compare     = flag.String("compare", "", "compare -in against this baseline artifact and exit (nonzero on regression)")
		in          = flag.String("in", "", "artifact to compare (default: -out)")
		maxReg      = flag.Float64("max-regress", 0.25, "allowed normalized throughput regression before -compare fails")
	)
	flag.Parse()

	if *compare != "" {
		os.Exit(runCompare(*compare, orDefault(*in, *out), *maxReg))
	}

	modes, err := parseModes(*mode)
	if err != nil {
		log.Fatal(err)
	}
	kinds, err := parseEngines(*engines)
	if err != nil {
		log.Fatal(err)
	}
	scens, err := parseScenarios(*scenarios, *batch)
	if err != nil {
		log.Fatal(err)
	}
	syncOpt, err := parseSync(*syncMode)
	if err != nil {
		log.Fatal(err)
	}
	shardCounts, err := parseShards(*shardsCSV)
	if err != nil {
		log.Fatal(err)
	}
	nodeCounts, err := parseNodeCounts(*nodesCSV)
	if err != nil {
		log.Fatal(err)
	}
	rates, err := parseRates(*ratesCSV, *rate)
	if err != nil {
		log.Fatal(err)
	}
	if *zipf != 0 && *zipf <= 1 {
		log.Fatalf("-zipf %v: the skew exponent must be > 1", *zipf)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	log.Printf("calibrating host")
	art := newArtifact(*seed, calibrationScore())
	log.Printf("calibration score %.1f Mops/s, %d CPUs", art.CalibrationScore, art.CPUs)

	cfg := benchConfig{
		degree: *degree, resources: *resources,
		workers: *workers, duration: *duration, warmup: *warmup,
		zipfS: *zipf, seed: *seed, addr: *addr, syncOpt: syncOpt,
		streamMin: *streamMin,
		seeded:    make(map[string]bool),
	}

	for _, nodeCount := range nodeCounts {
		top, err := generate.New(*topology,
			generate.WithNodes(nodeCount), generate.WithDegree(*degree),
			generate.WithCommunities(*communities), generate.WithSeed(*seed))
		if err != nil {
			log.Fatal(err)
		}
		env := cellEnv{top: top}
		if nodeCount < *streamMin {
			if env.g, err = generate.Build(top); err != nil {
				log.Fatal(err)
			}
			log.Printf("graph: %s, %d users, %d relationships",
				top.Kind(), env.g.NumNodes(), env.g.NumEdges())
		} else {
			log.Printf("graph: %s, %d users (built per cell)", top.Kind(), nodeCount)
		}
		for _, m := range modes {
			for _, kind := range kinds {
				for _, sc := range scens {
					for _, shardCount := range shardCounts {
						for _, r := range rates {
							cellCfg := cfg
							cellCfg.nodes = nodeCount
							cellCfg.shards = shardCount
							cellCfg.rate = r
							res, err := runScenario(m, env, kind, sc, cellCfg)
							if err != nil {
								log.Fatalf("%s/%s/%s: %v", m, kind, sc.Name, err)
							}
							art.Scenarios = append(art.Scenarios, res)
							label := res.Scenario
							if res.Shards > 0 {
								label = fmt.Sprintf("%s/s=%d", res.Scenario, res.Shards)
							}
							if res.RateLimit > 0 {
								label = fmt.Sprintf("%s@%g", label, res.RateLimit)
							}
							log.Printf("%-8s %-16s %-18s n=%-8d %9.0f ops/s  p50 %7.0fµs  p99 %7.0fµs  err %d  shed %d",
								res.Mode, res.Engine, label, res.Nodes, res.Throughput,
								res.Latency.P50, res.Latency.P99, res.Errors, res.Shed)
						}
					}
				}
				if m == "http" && cfg.addr != "" {
					break // an external daemon serves one engine; don't redrive it per kind
				}
			}
		}
	}

	if *appendArt {
		if prev, err := readArtifact(*out); err == nil {
			prev.merge(art)
			prev.CalibrationScore = art.CalibrationScore
			art = prev
		} else if !os.IsNotExist(err) {
			log.Fatalf("-append: %v", err)
		}
	}
	if err := art.write(*out); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d scenarios)", *out, len(art.Scenarios))
	printTable(art)
}

type benchConfig struct {
	nodes, degree, resources, workers int
	duration, warmup                  time.Duration
	rate                              float64
	// zipfS overrides the workload's popularity skew exponent (0 keeps
	// the workload default).
	zipfS float64
	// shards, when positive, routes an embedded cell through an
	// in-process shard router over that many embedded shard networks;
	// in http mode it only labels the cell (the external daemon's
	// topology is whatever it was started with).
	shards int
	// streamMin is the node count at which embedded cells switch to a
	// per-cell build.
	streamMin int
	seed      int64
	addr      string
	syncOpt   reachac.Option
	// seeded tracks external daemons this process already loaded the
	// graph into, so later scenario cells skip the redundant wire-seeding.
	seeded map[string]bool
}

// cellEnv is the per-node-count environment scenario cells share: the
// topology, and — below the -stream-min threshold — its materialization.
// A nil g means cells build the topology themselves (embedded mode
// only).
type cellEnv struct {
	top generate.Topology
	g   *graph.Graph
}

// runScenario benchmarks one (mode, engine, scenario[, shards, rate])
// cell: build the target, spin up per-worker deterministic generators,
// run the loadgen window, and fold the counter deltas into a
// ScenarioResult.
func runScenario(mode string, env cellEnv, kind reachac.EngineKind, sc workload.Scenario, cfg benchConfig) (ScenarioResult, error) {
	var (
		t              target
		src            workload.Source
		specs          []workload.ResourceSpec
		nNodes, nEdges int
		streamed       bool
		err            error
	)
	if env.g == nil {
		// Streamed cell: the network owns the cell's graph; workload
		// construction samples a pinned engine snapshot instead.
		if mode != "embedded" || cfg.shards > 0 {
			return ScenarioResult{}, fmt.Errorf(
				"%d nodes is at/above -stream-min: streamed cells support unsharded embedded mode only", env.top.Nodes())
		}
		streamed = true
		st, err := newStreamedCell(env.top, kind, sc, cfg)
		if err != nil {
			return ScenarioResult{}, err
		}
		t, src, specs = st.target, st.src, st.specs
		nNodes, nEdges = st.nodes, st.edges
		defer st.release()
	} else {
		src = env.g
		specs = sc.Resources(env.g, cfg.resources, cfg.seed+1)
		switch mode {
		case "embedded":
			if cfg.shards > 0 {
				t, err = newShardedTarget(env.g, kind, specs, cfg.workers, cfg.shards)
			} else {
				t, err = newEmbeddedTarget(env.g, kind, specs, cfg.workers)
			}
		case "http":
			if cfg.addr != "" {
				t, err = newExternalTarget(cfg.addr, env.g, specs, cfg.workers, cfg.seeded[cfg.addr])
				if err == nil {
					cfg.seeded[cfg.addr] = true
				}
			} else {
				t, err = newSelfHostedTarget(env.g, kind, specs, cfg.workers, cfg.syncOpt)
			}
		default:
			err = fmt.Errorf("unknown mode %q", mode)
		}
		if err != nil {
			return ScenarioResult{}, err
		}
		nNodes, nEdges = env.g.NumNodes(), env.g.NumEdges()
	}
	defer t.close()

	gens := make([]*workload.Generator, cfg.workers)
	for w := range gens {
		gens[w] = workload.NewGenerator(src, sc.Mix, sc.GenConfig(workload.GenConfig{
			Resources: specs,
			ZipfS:     cfg.zipfS,
			Worker:    w,
			Workers:   cfg.workers,
		}), cfg.seed+int64(w)*7919)
	}
	if streamed {
		// Generators are built; drop the snapshot pin before the run so
		// publication advances cheaply under mutation.
		t.(*streamedCellTarget).releaseView()
	}
	before, err := t.stats()
	if err != nil {
		return ScenarioResult{}, err
	}
	res := loadgen.Run(context.Background(), loadgen.Config{
		Workers:  cfg.workers,
		Duration: cfg.duration,
		Warmup:   cfg.warmup,
		Rate:     cfg.rate,
		Classify: t.classify,
	}, func(ctx context.Context, worker int) error {
		return t.do(ctx, worker, gens[worker].Next())
	})
	after, err := t.stats()
	if err != nil {
		return ScenarioResult{}, err
	}

	engine := t.engineName()
	if engine == "" {
		engine = kind.String()
	}
	total := res.Ops + res.Errors + res.Shed
	sr := ScenarioResult{
		Mode:        mode,
		Engine:      engine,
		Scenario:    sc.Name,
		Topology:    env.top.Kind(),
		Streamed:    streamed,
		Shards:      cfg.shards,
		Nodes:       nNodes,
		Edges:       nEdges,
		Resources:   len(specs),
		Workers:     cfg.workers,
		RateLimit:   cfg.rate,
		DurationSec: res.Elapsed.Seconds(),
		Ops:         res.Ops,
		Errors:      res.Errors,
		Shed:        res.Shed,
		Throughput:  res.Throughput(),
		Latency:     summarize(res.Hist),
		Counters:    after.delta(before),
	}
	if total > 0 {
		sr.ShedRate = float64(res.Shed) / float64(total)
	}
	return sr, nil
}

// runCompare loads the two artifacts and applies the regression gate.
func runCompare(baselinePath, currentPath string, maxRegress float64) int {
	baseline, err := readArtifact(baselinePath)
	if err != nil {
		log.Printf("baseline: %v", err)
		return 2
	}
	current, err := readArtifact(currentPath)
	if err != nil {
		log.Printf("current: %v", err)
		return 2
	}
	regressions, notes := compareArtifacts(baseline, current, maxRegress)
	for _, n := range notes {
		log.Printf("note: %s", n)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			log.Printf("REGRESSION: %s", r)
		}
		log.Printf("%d scenario(s) regressed more than %.0f%%; rerun, or re-baseline intentionally (see README) ", len(regressions), maxRegress*100)
		return 1
	}
	log.Printf("no regression beyond %.0f%% across %d baseline scenario(s)", maxRegress*100, len(baseline.Scenarios))
	return 0
}

func printTable(a *Artifact) {
	tbl := benchutil.NewTable("mode", "engine", "scenario", "nodes", "rate", "ops/s", "p50", "p99", "p99.9", "err", "shed", "fsyncs")
	us := func(v float64) string { return benchutil.Dur(time.Duration(v * 1e3)) }
	for _, s := range a.Scenarios {
		rateCol := "-"
		if s.RateLimit > 0 {
			rateCol = fmt.Sprintf("%g", s.RateLimit)
		}
		tbl.AddRow(s.Mode, s.Engine, s.Scenario,
			fmt.Sprintf("%d", s.Nodes), rateCol,
			fmt.Sprintf("%.0f", s.Throughput),
			us(s.Latency.P50), us(s.Latency.P99), us(s.Latency.P999),
			fmt.Sprintf("%d", s.Errors), fmt.Sprintf("%d", s.Shed),
			fmt.Sprintf("%d", s.Counters.WALFsyncs))
	}
	tbl.Fprint(os.Stdout)
}

// --- flag parsing ---

func orDefault(v, def string) string {
	if v != "" {
		return v
	}
	return def
}

func parseModes(s string) ([]string, error) {
	switch s {
	case "embedded", "http":
		return []string{s}, nil
	case "both":
		return []string{"embedded", "http"}, nil
	}
	return nil, fmt.Errorf("unknown -mode %q (have embedded, http, both)", s)
}

func parseEngines(s string) ([]reachac.EngineKind, error) {
	if s == "all" {
		return reachac.EngineKinds(), nil
	}
	var kinds []reachac.EngineKind
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		kind, err := reachac.ParseEngineKind(name)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, kind)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("-engines is empty")
	}
	return kinds, nil
}

// parseScenarios resolves -scenarios against the workload registry,
// applying the -batch override to scenarios that batch.
func parseScenarios(s string, batch int) ([]workload.Scenario, error) {
	var scens []workload.Scenario
	if s == "all" {
		scens = workload.Scenarios()
	} else {
		for _, name := range strings.Split(s, ",") {
			sc, ok := workload.Lookup(strings.TrimSpace(name))
			if !ok {
				return nil, fmt.Errorf("unknown scenario %q (have %s)", name, strings.Join(workload.Names(), ", "))
			}
			scens = append(scens, sc)
		}
	}
	for i := range scens {
		if scens[i].Mix.BatchSize > 0 && batch > 0 {
			scens[i].Mix.BatchSize = batch
		}
	}
	if len(scens) == 0 {
		return nil, fmt.Errorf("-scenarios is empty")
	}
	return scens, nil
}

// parseShards parses the -shards comma list; empty means one unsharded
// cell per (mode, engine, scenario), the pre-sharding behavior.
func parseShards(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return []int{0}, nil
	}
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-shards %q: counts must be positive integers", s)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// parseNodeCounts parses the -nodes comma list for scaling sweeps.
func parseNodeCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("-nodes %q: counts must be integers >= 2", s)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("-nodes is empty")
	}
	return counts, nil
}

// parseRates parses the -rates sweep; empty falls back to the single
// -rate value (0 = closed loop).
func parseRates(s string, fallback float64) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return []float64{fallback}, nil
	}
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("-rates %q: arrival rates must be positive numbers", s)
		}
		rates = append(rates, r)
	}
	return rates, nil
}

func parseSync(s string) (reachac.Option, error) {
	switch s {
	case "always":
		return reachac.WithSync(reachac.SyncAlways), nil
	case "interval":
		return reachac.WithSyncInterval(2 * time.Millisecond), nil
	case "never":
		return reachac.WithSync(reachac.SyncNever), nil
	}
	return nil, fmt.Errorf("unknown -sync %q (have always, interval, never)", s)
}
