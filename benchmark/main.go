// Command benchmark is the repository's benchmark: four workloads, six
// bounded end-to-end metrics, and a separate traced run that attributes them
// to layers. See README.md; BENCHMARK.json at the repository root describes it
// to the pipeline.
//
//	benchmark --workload http-check --seed 1 --seconds 25 --trace 0
//
// prints every end-to-end metric as "workload metric value unit" and, as its
// last line, one JSON object {correct, attempted, failed, metrics}. With
// --trace 1 the metrics are the per-layer ones and the spans are written to
// <out>/trace-<workload>.jsonl. Without --workload every workload runs, each
// in its own child process so heap and GC state do not leak between them.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"reachac"
	"reachac/internal/httpapi"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of standard output, the pipeline's contract.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is what a run leaves in <out>/result-*.json for later issues to
// parse instead of scraping.
type report struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	CPUs      int    `json:"cpus"`
	Workers   int    `json:"workers"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
	Sync      string `json:"sync,omitempty"`
	verdict
	Samples map[string]uint64 `json:"samples"`
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all, one child process each)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	outDir := flag.String("out", "benchmark/out", "directory for results, traces and scratch state")
	flag.Parse()

	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace, *outDir))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rep, err := runWorkload(w, *seed, *seconds, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := writeJSON(resultPath(*outDir, w.name, rep.Traced), rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(rep.verdict) // plain numbers, strings and bools
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func resultPath(outDir, workload string, traced bool) string {
	if traced {
		return filepath.Join(outDir, "result-"+workload+"-traced.json")
	}
	return filepath.Join(outDir, "result-"+workload+".json")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload in a child process of its own, passes their
// output through, and collects their reports into <out>/result.json.
func runAll(seed int64, seconds, trace int, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	status := 0
	var reports []json.RawMessage
	for _, w := range workloads {
		cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--out", outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			status = 1
			continue
		}
		data, err := os.ReadFile(resultPath(outDir, w.name, trace == 1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			status = 1
			continue
		}
		reports = append(reports, bytes.TrimSpace(data))
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), reports); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return status
}

// workers is the number of callers (and, over HTTP, keep-alive connections)
// of every phase: one. The benchmark shares two cores of a shared host with
// the system it drives, and with two callers every tail and every
// lock-protected path measured how the host scheduled them. Under a
// neighbour's CPU bursts ten seeds of embed-churn spread 45 % in ops_per_s with
// two callers and 4 % with one; the p99 of the HTTP workloads spread 36-51 %
// against 15-19 %. What two callers did exercise, a publication finding a
// reader on the spare snapshot, embed-churn now does on a schedule (see
// pinEvery).
const workers = 1

func newReport(w *workloadSpec, seed int64, seconds int, traced bool) *report {
	rep := &report{
		Workload: w.name, Traced: traced, Seed: seed, Seconds: seconds,
		CPUs: runtime.NumCPU(), Workers: workers, GoVersion: runtime.Version(), Commit: "unknown",
		verdict: verdict{Correct: true, Metrics: make(map[string]metricValue)},
		Samples: make(map[string]uint64),
	}
	if w.http {
		rep.Sync = "SyncNever" // see setup: the log is written, not flushed
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rep.Commit = s.Value
			}
		}
	}
	return rep
}

// out prints one metric line and stores the metric in the report.
func (rep *report) out(defs []metricDef, name string, value float64, samples uint64) {
	for _, d := range defs {
		if d.name == name {
			rep.Metrics[name] = metricValue{value, d.unit}
			rep.Samples[name] = samples
			fmt.Printf("%s %s %.6g %s n=%d\n", rep.Workload, name, value, d.unit, samples)
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in metrics.go")
}

func (rep *report) count(r *phaseResult) {
	rep.Attempted += r.attempted
	rep.Failed += r.failed
	if r.failed > 0 {
		fmt.Printf("%s: %d of %d operations failed, first: %v\n", rep.Workload, r.failed, r.attempted, r.firstErr)
	}
}

func share(seconds int, part float64) time.Duration {
	return time.Duration(float64(seconds) * part * float64(time.Second)).Truncate(time.Second)
}

// verify runs decision verification (and for http-write the reopen check)
// and records the outcome in the report.
func (rep *report) verify(e *env, reopen bool) error {
	e.unpin()
	checked, allows, mismatches, err := verifyDecisions(e)
	if err != nil {
		return fmt.Errorf("verifying decisions: %w", err)
	}
	fmt.Printf("%s: verified %d decisions against the reference evaluator (%d allows): %d mismatches\n",
		rep.Workload, checked, allows, len(mismatches))
	for _, m := range mismatches {
		fmt.Printf("%s: MISMATCH %s\n", rep.Workload, m)
	}
	rep.Correct = rep.Correct && len(mismatches) == 0
	if !reopen {
		return nil
	}
	lost, err := verifyReopen(e)
	if err != nil {
		return err
	}
	fmt.Printf("%s: reopened the directory: %d acknowledged live writes lost\n", rep.Workload, len(lost))
	for _, l := range lost {
		fmt.Printf("%s: LOST %s\n", rep.Workload, l)
	}
	rep.Correct = rep.Correct && len(lost) == 0
	return nil
}

// setupRounds is how often the untraced run sets the system up; setup_s is
// the median, so one slow start does not decide it.
const setupRounds = 5

func runWorkload(w *workloadSpec, seed int64, seconds int, traced bool, outDir string) (*report, error) {
	rep := newReport(w, seed, seconds, traced)
	if traced {
		return rep, runTraced(rep, w, seed, seconds, outDir)
	}
	var e *env
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if e, err = setup(w, seed, workers, outDir, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, e.totalS)
	}
	defer e.close()

	// The end-to-end numbers come from a closed loop on every workload: W
	// callers that each wait for their reply. The open loop an HTTP workload
	// also deserves runs in the traced run, which reports its latencies
	// unbounded; over ten seeds its p99 spread 33 % on http-write where the
	// closed loop's spread 13 %.
	closed := run(e, e.tgt, phase{dur: time.Duration(seconds) * time.Second})
	rep.count(&closed)
	if err := rep.verify(e, w.http && w.mix.toggle > 0); err != nil {
		return nil, err
	}
	load := closed.summarize()
	rep.out(endToEnd, "setup_s", median(setups), setupRounds)
	rep.out(endToEnd, "ops_per_s", load.opsPerS, uint64(len(closed.slices)))
	rep.out(endToEnd, "check_p50_us", load.checkP50, load.checks)
	rep.out(endToEnd, "check_p99_us", load.checkP99, load.checks)
	rep.out(endToEnd, "ok_ratio", 1-float64(rep.Failed)/float64(rep.Attempted), rep.Attempted)
	rep.out(endToEnd, "heap_mb", e.heapMB, 1)
	if load.writes > 0 {
		// Not among the bounded metrics (a read-only workload has none to
		// report); the traced run reports them per layer.
		fmt.Printf("%s write_p50_us %.6g us n=%d (unbounded)\n%s write_p99_us %.6g us n=%d (unbounded)\n",
			w.name, load.writeP50, load.writes, w.name, load.writeP99, load.writes)
	}
	if w.http {
		fmt.Printf("%s: flush policy %s on %s (wal.append_us of the traced run is what a flush per write adds on this sandbox's disk)\n", w.name, rep.Sync, outDir)
	}
	return rep, nil
}

// counters is the system's own counts at one instant.
type counters struct {
	reachac.Stats
	server httpapi.ServerStats
}

func readCounters(e *env) (counters, error) {
	if e.cli == nil {
		return counters{Stats: e.net.Stats()}, nil
	}
	st, err := e.cli.Stats(context.Background())
	return counters{Stats: st.Stats, server: st.Server}, err
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// runTraced is the traced run: an untraced window for the system's own
// counts, a traced closed loop for the spans of the outside boundaries, then
// the replay of the inner layers on the state that is left.
func runTraced(rep *report, w *workloadSpec, seed int64, seconds int, outDir string) error {
	rec := newRecorder()
	e, err := setup(w, seed, workers, outDir, rec)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer e.close()

	before, err := readCounters(e)
	if err != nil {
		return err
	}
	var paced phaseResult
	if w.rate > 0 {
		paced = run(e, e.tgt, phase{dur: share(seconds, 0.35), rate: w.rate})
		rep.count(&paced)
	}
	closed := run(e, e.tgt, phase{dur: share(seconds, 0.3)})
	rep.count(&closed)
	after, err := readCounters(e)
	if err != nil {
		return err
	}
	d := after.Stats.Delta(before.Stats)
	requests := paced.attempted + closed.attempted
	load := closed.summarize()

	traced := run(e, e.tgt, phase{dur: share(seconds, 0.2), rec: rec})
	rep.count(&traced)
	if err := rep.verify(e, false); err != nil {
		return err
	}
	// The paced loop against a target that does nothing, at the http-check
	// rate: what the harness itself adds to a paced latency. Before the
	// replay, whose garbage (graph clones) would be what gets measured.
	checks := *w
	checks.mix, checks.pinEvery = mix{check: 1}, 0
	var noopGens []*generator
	for i := 0; i < e.workers; i++ {
		noopGens = append(noopGens, newGenerator(&checks, e.adj, e.specs, seed+8, i, e.workers))
	}
	noop := run(e, noopTarget{}, phase{dur: 2 * time.Second, rate: workloads[0].rate, gens: noopGens})
	idle := noop.summarize() // medians over slices, like every paced latency

	m := &layers{v: make(map[string]float64), n: make(map[string]uint64)}
	if err := replayLayers(e, m, outDir); err != nil {
		return fmt.Errorf("replaying layers: %w", err)
	}
	m.set("harness.noop_p50_us", idle.checkP50, int(idle.checks))
	m.set("harness.noop_p99_us", idle.checkP99, int(idle.checks))
	openLoop := paced.summarize()
	m.set("paced.check_p50_us", openLoop.checkP50, int(openLoop.checks))
	m.set("paced.check_p99_us", openLoop.checkP99, int(openLoop.checks))
	m.set("paced.write_p50_us", openLoop.writeP50, int(openLoop.writes))
	m.set("paced.write_p99_us", openLoop.writeP99, int(openLoop.writes))
	m.set("harness.gen_late_p99_us", paced.late.quantile(0.99)/1e3, int(paced.late.n))
	m.set("harness.limit_miss_ratio", ratio(paced.missed, paced.limited), int(paced.limited))
	m.set("harness.trace_overhead_ratio", traced.summarize().opsPerS/load.opsPerS, len(traced.slices))
	m.set("write_p50_us", load.writeP50, int(load.writes))
	m.set("write_p99_us", load.writeP99, int(load.writes))
	m.set("fail_ratio", ratio(rep.Failed, rep.Attempted), int(rep.Attempted))

	// Spans of the outside boundaries: self time is taken per request, then
	// the median; the inner layers' self times subtract the replayed medians.
	total, self := spanTimes(rec.spans)
	m.set("client.call_us", p50(total[spanClientCall]), len(total[spanClientCall]))
	m.set("client.self_us", p50(self[spanClientCall]), len(self[spanClientCall]))
	m.set("loopback.self_us", p50(self[spanRoundTrip]), len(self[spanRoundTrip]))
	m.set("server.handler_check_us", p50(total[spanHandlerCheck]), len(total[spanHandlerCheck]))
	m.set("server.handler_batch_us", p50(total[spanHandlerBatch]), len(total[spanHandlerBatch]))
	m.set("server.handler_write_us", p50(total[spanHandlerWrite]), len(total[spanHandlerWrite]))
	if n := len(total[spanHandlerCheck]); n > 0 {
		m.set("server.self_check_us", m.v["server.handler_check_us"]-m.v["reachac.check_us"], n)
	}
	if n := len(total[spanHandlerWrite]); n > 0 {
		m.set("server.self_write_us", m.v["server.handler_write_us"]-m.v["reachac.mutate_us"], n)
	}

	// Counts over the untraced window.
	m.set("server.commit_group_size", ratio(after.server.CoalescedMutations-before.server.CoalescedMutations,
		after.server.CommitGroups-before.server.CommitGroups), int(after.server.CommitGroups-before.server.CommitGroups))
	m.set("server.shed_ratio", ratio(after.server.QueueRejected-before.server.QueueRejected+
		after.server.CheckRejected-before.server.CheckRejected, requests), int(requests))
	lookups := d.DecisionCacheHits + d.DecisionCacheMisses
	routes := d.PlannerRouteAudience + d.PlannerRouteFlatForward + d.PlannerRouteFlatReverse + d.PlannerRoutePrimary
	m.set("reachac.republications_per_kmut", 1000*ratio(d.Republications, d.Mutations), int(d.Mutations))
	m.set("planner.dcache_hit_ratio", ratio(d.DecisionCacheHits, lookups), int(lookups))
	m.set("planner.dcache_evict_per_kmut", 1000*ratio(d.DecisionCacheEvictions, d.Mutations), int(d.Mutations))
	m.set("planner.route_audience_share", ratio(d.PlannerRouteAudience, routes), int(routes))
	m.set("planner.route_flat_share", ratio(d.PlannerRouteFlatForward+d.PlannerRouteFlatReverse, routes), int(routes))
	m.set("planner.route_primary_share", ratio(d.PlannerRoutePrimary, routes), int(routes))
	m.set("wal.fsyncs_per_kmut", 1000*ratio(d.WALFsyncs, d.Mutations), int(d.Mutations))
	m.set("generate.stream_s", e.genS, 1)
	m.set("reachac.load_s", e.loadS, 1)
	m.set("reachac.engine_build_s", e.engineS, 1)

	for _, def := range perLayer {
		rep.out(perLayer, def.name, m.v[def.name], m.n[def.name])
	}
	fmt.Printf("%s: untraced window: %d republications, %d mutations, %d checks\n", w.name, d.Republications, d.Mutations, d.Checks)

	// The harness states how far its paced numbers can be trusted and fails
	// the run when its own share of them is too large. Lateness in the real
	// run is reported, not bounded: with one connection per worker it is
	// queueing behind the system's slow requests, which the latencies count.
	if w.rate > 0 {
		if v, limit := m.v["harness.noop_p50_us"], 0.1*openLoop.checkP50; v > limit {
			return fmt.Errorf("harness.noop_p50_us = %.1f us exceeds 10 %% of paced.check_p50_us (%.1f us): the paced latencies of this run are the harness's", v, limit)
		}
		if v, limit := m.v["harness.noop_p99_us"], 0.5*openLoop.checkP99; v > limit {
			return fmt.Errorf("harness.noop_p99_us = %.1f us exceeds 50 %% of paced.check_p99_us (%.1f us): the paced latencies of this run are the harness's", v, limit)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "trace-"+w.name+".jsonl")
	if err := rec.flush(path); err != nil {
		return err
	}
	fmt.Printf("%s: wrote %d spans to %s\n", w.name, len(rec.spans), path)
	return nil
}
