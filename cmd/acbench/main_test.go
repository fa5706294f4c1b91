package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"reachac"
	"reachac/internal/generate"
	"reachac/internal/workload"
)

func art(calibration float64, cells ...ScenarioResult) *Artifact {
	a := newArtifact(1, calibration)
	a.Scenarios = cells
	return a
}

func cell(mode, engine, scenario string, tput float64) ScenarioResult {
	return ScenarioResult{Mode: mode, Engine: engine, Scenario: scenario, Throughput: tput, Ops: 100_000}
}

// TestCompareFailsOnRegression is the gate's core contract: a >25%
// throughput drop on any scenario must be flagged; a smaller one must
// not.
func TestCompareFailsOnRegression(t *testing.T) {
	baseline := art(100,
		cell("embedded", "online-bfs", "read-heavy", 10000),
		cell("embedded", "online-bfs", "churn", 8000),
	)
	ok := art(100,
		cell("embedded", "online-bfs", "read-heavy", 8000), // -20%: allowed
		cell("embedded", "online-bfs", "churn", 8100),
	)
	if regs, _ := compareArtifacts(baseline, ok, 0.25); len(regs) != 0 {
		t.Fatalf("-20%% flagged as regression: %v", regs)
	}
	bad := art(100,
		cell("embedded", "online-bfs", "read-heavy", 7000), // -30%: flagged
		cell("embedded", "online-bfs", "churn", 8100),
	)
	regs, _ := compareArtifacts(baseline, bad, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "read-heavy") {
		t.Fatalf("want exactly the read-heavy regression, got %v", regs)
	}
}

// TestCompareCalibrationNormalizes: the same relative performance on a
// half-speed machine is not a regression, and a drop that calibration
// cannot explain still is.
func TestCompareCalibrationNormalizes(t *testing.T) {
	baseline := art(200, cell("embedded", "online-bfs", "read-heavy", 10000))
	slowMachine := art(100, cell("embedded", "online-bfs", "read-heavy", 5200))
	if regs, _ := compareArtifacts(baseline, slowMachine, 0.25); len(regs) != 0 {
		t.Fatalf("half-speed machine at half throughput flagged: %v", regs)
	}
	slowCode := art(200, cell("embedded", "online-bfs", "read-heavy", 5200))
	if regs, _ := compareArtifacts(baseline, slowCode, 0.25); len(regs) != 1 {
		t.Fatalf("true regression missed under equal calibration: %v", regs)
	}
}

// TestCompareMissingGatedCellFails: a gated baseline cell the current run
// lacks fails the gate, so cells cannot vanish between regenerations
// unnoticed; a thin one, which is never gated, stays a note.
func TestCompareMissingGatedCellFails(t *testing.T) {
	thin := cell("http", "join-index", "audience-scan", 250)
	thin.Ops = 400
	baseline := art(100, cell("http", "join-index", "churn", 5000), thin)
	current := art(100, cell("embedded", "online-bfs", "read-heavy", 9000))
	regs, notes := compareArtifacts(baseline, current, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "churn") || !strings.Contains(regs[0], "missing") {
		t.Fatalf("want exactly the missing churn cell to fail, got %v", regs)
	}
	found := false
	for _, n := range notes {
		if strings.Contains(n, "audience-scan") && strings.Contains(n, "too few to gate") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing thin cell not noted: %v", notes)
	}
}

// TestCompareSkipsThinCells: a baseline cell with too few completed ops
// is statistical noise; it must be noted, never gated.
func TestCompareSkipsThinCells(t *testing.T) {
	thin := cell("embedded", "join-index", "audience-scan", 250)
	thin.Ops = 400
	baseline := art(100, thin)
	current := art(100, cell("embedded", "join-index", "audience-scan", 50)) // -80%
	regs, notes := compareArtifacts(baseline, current, 0.25)
	if len(regs) != 0 {
		t.Fatalf("thin cell gated: %v", regs)
	}
	found := false
	for _, n := range notes {
		if strings.Contains(n, "too few to gate") {
			found = true
		}
	}
	if !found {
		t.Fatalf("thin cell skip not noted: %v", notes)
	}
}

func TestArtifactRoundTripAndMerge(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	a := art(50, cell("embedded", "online-bfs", "read-heavy", 1000))
	if err := a.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Scenarios) != 1 || back.Scenarios[0].Throughput != 1000 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	back.merge(art(60,
		cell("embedded", "online-bfs", "read-heavy", 2000), // replaces
		cell("http", "online-bfs", "read-heavy", 500),      // appends
	))
	if len(back.Scenarios) != 2 {
		t.Fatalf("merge produced %d cells, want 2", len(back.Scenarios))
	}
	for _, s := range back.Scenarios {
		if s.Mode == "embedded" && s.Throughput != 2000 {
			t.Fatalf("same-key cell not replaced: %+v", s)
		}
	}
}

func TestReadArtifactRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	a := art(1)
	a.Schema = "acbench/v0"
	if err := a.write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := readArtifact(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// testEnv materializes a tiny cell environment the way main does below
// the streaming threshold.
func testEnv(t *testing.T, nodes int) cellEnv {
	t.Helper()
	top := generate.MustNew("osn", generate.WithNodes(nodes), generate.WithSeed(3))
	return cellEnv{top: top, g: generate.MustBuild(top)}
}

// TestRunScenarioEmbeddedSmoke runs one real (tiny) embedded cell per
// registered scenario and sanity-checks the resulting cell, covering the
// end-to-end path CI's bench job exercises.
func TestRunScenarioEmbeddedSmoke(t *testing.T) {
	env := testEnv(t, 150)
	cfg := benchConfig{
		nodes: 150, degree: 8, resources: 8, workers: 2,
		duration: 150 * time.Millisecond, warmup: 30 * time.Millisecond, seed: 5,
	}
	for _, sc := range workload.Scenarios() {
		res, err := runScenario("embedded", env, sc, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if res.Ops == 0 {
			t.Fatalf("%s: no operations completed", sc.Name)
		}
		if res.Errors > 0 {
			t.Fatalf("%s: %d operation errors against embedded target", sc.Name, res.Errors)
		}
		if res.Throughput <= 0 || res.Latency.P99 < res.Latency.P50 {
			t.Fatalf("%s: implausible result %+v", sc.Name, res)
		}
		if res.Topology != "osn" || res.Nodes != 150 || res.Streamed || res.Engine != "online-bfs" {
			t.Fatalf("%s: cell identity wrong: %+v", sc.Name, res)
		}
		switch sc.Name {
		case "check-batch":
			if res.Counters.BatchChecks == 0 {
				t.Fatalf("check-batch recorded no batch checks: %+v", res.Counters)
			}
		case "audience-scan":
			if res.Counters.Audiences == 0 {
				t.Fatalf("audience-scan recorded no audiences: %+v", res.Counters)
			}
		case "write-heavy", "churn", "time-bounded":
			if res.Counters.Mutations == 0 {
				t.Fatalf("%s recorded no mutations: %+v", sc.Name, res.Counters)
			}
		}
	}
}

// TestRunScenarioStreamedSmoke forces the streamed path at tiny n (as if
// -stream-min were crossed): the graph is built for the cell alone, the
// workload is built off a pinned snapshot, and the cell must match a
// materialized run's shape. Also pins the streamed-mode restrictions.
func TestRunScenarioStreamedSmoke(t *testing.T) {
	top := generate.MustNew("ldbc", generate.WithNodes(400), generate.WithSeed(3))
	env := cellEnv{top: top} // g == nil → streamed
	cfg := benchConfig{
		nodes: 400, degree: 8, resources: 8, workers: 2,
		duration: 150 * time.Millisecond, warmup: 30 * time.Millisecond, seed: 5,
		streamMin: 1,
	}
	sc, ok := workload.Lookup("read-heavy")
	if !ok {
		t.Fatal("missing read-heavy scenario")
	}
	res, err := runScenario("embedded", env, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Errors > 0 {
		t.Fatalf("ops=%d errors=%d", res.Ops, res.Errors)
	}
	if !res.Streamed || res.Topology != "ldbc" || res.Nodes != 400 || res.Edges == 0 {
		t.Fatalf("streamed cell identity wrong: %+v", res)
	}
	if _, err := runScenario("http", env, sc, cfg); err == nil {
		t.Fatal("streamed cell accepted http mode")
	}
	shardCfg := cfg
	shardCfg.shards = 2
	if _, err := runScenario("embedded", env, sc, shardCfg); err == nil {
		t.Fatal("streamed cell accepted sharding")
	}
}

// TestRunScenarioOpenLoop: a rate-limited cell must record its arrival
// rate in the result (the open-loop sweep key) and complete roughly
// rate×duration operations, not a closed-loop flood.
func TestRunScenarioOpenLoop(t *testing.T) {
	env := testEnv(t, 150)
	cfg := benchConfig{
		nodes: 150, degree: 8, resources: 6, workers: 2,
		duration: 300 * time.Millisecond, warmup: 30 * time.Millisecond, seed: 5,
		rate: 200,
	}
	sc, _ := workload.Lookup("read-heavy")
	res, err := runScenario("embedded", env, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RateLimit != 200 {
		t.Fatalf("rate not recorded: %+v", res)
	}
	total := res.Ops + res.Errors + res.Shed
	if total == 0 || total > 400 {
		t.Fatalf("open loop at 200 ops/s for 300ms completed %d ops", total)
	}
	if !strings.Contains(res.key(), "/r=200") {
		t.Fatalf("rate missing from cell key %q", res.key())
	}
}

// TestRunScenarioHTTPSmoke runs one tiny scenario against a self-hosted
// serving stack — real HTTP, durable WAL — and checks the serving-layer
// counters landed.
func TestRunScenarioHTTPSmoke(t *testing.T) {
	env := testEnv(t, 120)
	cfg := benchConfig{
		nodes: 120, degree: 8, resources: 6, workers: 2,
		duration: 200 * time.Millisecond, warmup: 30 * time.Millisecond, seed: 5,
		syncOpt: reachac.WithSync(reachac.SyncNever),
	}
	sc, ok := workload.Lookup("write-heavy")
	if !ok {
		t.Fatal("missing write-heavy scenario")
	}
	res, err := runScenario("http", env, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Errors > 0 {
		t.Fatalf("ops=%d errors=%d", res.Ops, res.Errors)
	}
	if res.Counters.Mutations == 0 || res.Counters.WALAppends == 0 {
		t.Fatalf("durable serving run recorded no WAL activity: %+v", res.Counters)
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := parseModes("bogus"); err == nil {
		t.Fatal("bad mode accepted")
	}
	if ms, _ := parseModes("both"); len(ms) != 2 {
		t.Fatalf("both = %v", ms)
	}
	if scens, err := parseScenarios("all", 8); err != nil || len(scens) != len(workload.Names()) {
		t.Fatalf("all scenarios = %v, %v", scens, err)
	}
	if scens, err := parseScenarios("check-batch", 8); err != nil || scens[0].Mix.BatchSize != 8 {
		t.Fatalf("batch override failed: %v, %v", scens, err)
	}
	if scens, err := parseScenarios("multi-tenant,delegation", 8); err != nil ||
		len(scens) != 2 || scens[0].Name != "multi-tenant" || scens[1].Name != "delegation" {
		t.Fatalf("named scenarios = %v, %v", scens, err)
	}
	if _, err := parseScenarios("nope", 8); err == nil {
		t.Fatal("bad scenario accepted")
	}
	if _, err := parseSync("sometimes"); err == nil {
		t.Fatal("bad sync accepted")
	}
}

func TestParseNodeCountsAndRates(t *testing.T) {
	got, err := parseNodeCounts("800, 10000,100000")
	if err != nil || len(got) != 3 || got[0] != 800 || got[2] != 100000 {
		t.Fatalf("parseNodeCounts sweep = %v, %v", got, err)
	}
	for _, bad := range []string{"", "1", "0", "-5", "many", "800,,200"} {
		if _, err := parseNodeCounts(bad); err == nil {
			t.Errorf("parseNodeCounts(%q) accepted", bad)
		}
	}
	rates, err := parseRates("", 0)
	if err != nil || len(rates) != 1 || rates[0] != 0 {
		t.Fatalf("empty -rates = %v, %v; want the -rate fallback", rates, err)
	}
	rates, err = parseRates("", 1500)
	if err != nil || len(rates) != 1 || rates[0] != 1500 {
		t.Fatalf("fallback rate = %v, %v", rates, err)
	}
	rates, err = parseRates("2000, 10000,40000", 0)
	if err != nil || len(rates) != 3 || rates[1] != 10000 {
		t.Fatalf("parseRates sweep = %v, %v", rates, err)
	}
	for _, bad := range []string{"0", "-3", "fast", "100,,200"} {
		if _, err := parseRates(bad, 0); err == nil {
			t.Errorf("parseRates(%q) accepted", bad)
		}
	}
}

// TestCellKeyDimensions: topology, node count, shards and rate must all
// be part of a cell's identity so sweeps don't collapse onto one key.
func TestCellKeyDimensions(t *testing.T) {
	base := cell("embedded", "online-bfs", "read-heavy", 1000)
	keys := map[string]bool{base.key(): true}
	for _, mut := range []func(*ScenarioResult){
		func(s *ScenarioResult) { s.Topology = "ldbc" },
		func(s *ScenarioResult) { s.Topology = "ldbc"; s.Nodes = 100000 },
		func(s *ScenarioResult) { s.Nodes = 800 },
		func(s *ScenarioResult) { s.Shards = 4 },
		func(s *ScenarioResult) { s.RateLimit = 2000 },
	} {
		s := base
		mut(&s)
		if keys[s.key()] {
			t.Fatalf("key %q collides after mutation: %+v", s.key(), s)
		}
		keys[s.key()] = true
	}
}

func TestParseShards(t *testing.T) {
	got, err := parseShards("")
	if err != nil || len(got) != 1 || got[0] != 0 {
		t.Fatalf("empty -shards = %v, %v; want [0] (unsharded)", got, err)
	}
	got, err = parseShards(" 1, 2,4 ")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("parseShards sweep = %v, %v; want [1 2 4]", got, err)
	}
	for _, bad := range []string{"0", "-2", "two", "1,,4"} {
		if _, err := parseShards(bad); err == nil {
			t.Errorf("parseShards(%q) accepted", bad)
		}
	}
}

func TestParseSyncAndOrDefault(t *testing.T) {
	for _, mode := range []string{"always", "interval", "never"} {
		if opt, err := parseSync(mode); err != nil || opt == nil {
			t.Fatalf("parseSync(%q): %v", mode, err)
		}
	}
	if _, err := parseSync("sometimes"); err == nil {
		t.Fatal("parseSync accepted an unknown mode")
	}
	if orDefault("", "fallback") != "fallback" || orDefault("set", "fallback") != "set" {
		t.Fatal("orDefault picked the wrong side")
	}
}
