package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"reachac/internal/loadgen"
)

// SchemaV1 identifies the artifact format; bump on incompatible changes.
const SchemaV1 = "acbench/v1"

// Artifact is the machine-readable benchmark result BENCH_acbench.json
// carries: one entry per (mode, engine, scenario), plus enough host
// context to judge comparability across runs.
type Artifact struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	Seed      int64  `json:"seed"`
	// CalibrationScore is the host's throughput on a fixed CPU-bound
	// reference loop (mega-iterations/second). Regression comparison
	// normalizes by it, so a slower CI runner does not read as a
	// regression and a faster one does not mask one.
	CalibrationScore float64          `json:"calibration_score"`
	Scenarios        []ScenarioResult `json:"scenarios"`
}

// LatencySummary reports the recorded latency distribution in
// microseconds.
type LatencySummary struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

func summarize(h *loadgen.Histogram) LatencySummary {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return LatencySummary{
		P50:  us(h.Quantile(0.50)),
		P90:  us(h.Quantile(0.90)),
		P95:  us(h.Quantile(0.95)),
		P99:  us(h.Quantile(0.99)),
		P999: us(h.Quantile(0.999)),
		Mean: us(h.Mean()),
		Max:  us(h.Max()),
	}
}

// Counters is the engine/serving activity attributed to one scenario
// window (Stats deltas; the server_* fields stay zero in embedded mode).
type Counters struct {
	Checks         uint64 `json:"checks"`
	BatchChecks    uint64 `json:"batch_checks"`
	Audiences      uint64 `json:"audiences"`
	Mutations      uint64 `json:"mutations"`
	Batches        uint64 `json:"batches"`
	Republications uint64 `json:"republications"`
	WALAppends     uint64 `json:"wal_appends"`
	WALFsyncs      uint64 `json:"wal_fsyncs"`
	CommitGroups   uint64 `json:"server_commit_groups,omitempty"`
	QueueRejected  uint64 `json:"server_queue_rejected,omitempty"`
	CheckRejected  uint64 `json:"server_check_rejected,omitempty"`
	// The router_* fields are the shard router's own counters; all zero
	// outside sharded cells.
	RouterFastPath uint64 `json:"router_fast_path,omitempty"`
	RouterScatter  uint64 `json:"router_scatter,omitempty"`
	RouterExpand   uint64 `json:"router_expand_calls,omitempty"`
}

// delta subtracts prev's cumulative counters, attributing activity to one
// scenario window.
func (c Counters) delta(prev Counters) Counters {
	return Counters{
		Checks:         c.Checks - prev.Checks,
		BatchChecks:    c.BatchChecks - prev.BatchChecks,
		Audiences:      c.Audiences - prev.Audiences,
		Mutations:      c.Mutations - prev.Mutations,
		Batches:        c.Batches - prev.Batches,
		Republications: c.Republications - prev.Republications,
		WALAppends:     c.WALAppends - prev.WALAppends,
		WALFsyncs:      c.WALFsyncs - prev.WALFsyncs,
		CommitGroups:   c.CommitGroups - prev.CommitGroups,
		QueueRejected:  c.QueueRejected - prev.QueueRejected,
		CheckRejected:  c.CheckRejected - prev.CheckRejected,
		RouterFastPath: c.RouterFastPath - prev.RouterFastPath,
		RouterScatter:  c.RouterScatter - prev.RouterScatter,
		RouterExpand:   c.RouterExpand - prev.RouterExpand,
	}
}

// ScenarioResult is one benchmarked
// (mode, engine, scenario, topology, nodes[, shards][, rate]) cell.
type ScenarioResult struct {
	Mode     string `json:"mode"`
	Engine   string `json:"engine"`
	Scenario string `json:"scenario"`
	// Topology is the generator family the cell's graph came from
	// (osn, ldbc, ...); Streamed marks cells whose graph was built for
	// the cell alone instead of cloned from a shared one (large node
	// counts).
	Topology string `json:"topology,omitempty"`
	Streamed bool   `json:"streamed,omitempty"`
	// Shards is the shard-router fan-out of a sharded cell (0 for the
	// unsharded direct targets).
	Shards      int            `json:"shards,omitempty"`
	Nodes       int            `json:"nodes"`
	Edges       int            `json:"edges"`
	Resources   int            `json:"resources"`
	Workers     int            `json:"workers"`
	RateLimit   float64        `json:"rate_limit,omitempty"`
	DurationSec float64        `json:"duration_sec"`
	Ops         uint64         `json:"ops"`
	Errors      uint64         `json:"errors"`
	Shed        uint64         `json:"shed"`
	Throughput  float64        `json:"throughput_ops_per_sec"`
	ShedRate    float64        `json:"shed_rate"`
	Latency     LatencySummary `json:"latency_us"`
	Counters    Counters       `json:"counters"`
}

// key identifies a scenario cell across artifacts. Topology, node count
// and open-loop rate are part of the identity, so one artifact can hold
// a scaling sweep (same scenario at several sizes) and a
// latency-under-load sweep (same cell at several arrival rates) side by
// side and the regression gate compares like with like.
func (s ScenarioResult) key() string {
	k := s.Mode + "/" + s.Engine + "/" + s.Scenario
	if s.Topology != "" {
		k += "/t=" + s.Topology
	}
	if s.Nodes > 0 {
		k += fmt.Sprintf("/n=%d", s.Nodes)
	}
	if s.Shards > 0 {
		k += fmt.Sprintf("/shards=%d", s.Shards)
	}
	if s.RateLimit > 0 {
		k += fmt.Sprintf("/r=%g", s.RateLimit)
	}
	return k
}

func newArtifact(seed int64, calibration float64) *Artifact {
	return &Artifact{
		Schema:           SchemaV1,
		GoVersion:        runtime.Version(),
		GOOS:             runtime.GOOS,
		GOARCH:           runtime.GOARCH,
		CPUs:             runtime.NumCPU(),
		Seed:             seed,
		CalibrationScore: calibration,
	}
}

func readArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if a.Schema != SchemaV1 {
		return nil, fmt.Errorf("%s: unsupported schema %q (want %s)", path, a.Schema, SchemaV1)
	}
	return &a, nil
}

func (a *Artifact) write(path string) error {
	sort.Slice(a.Scenarios, func(i, j int) bool { return a.Scenarios[i].key() < a.Scenarios[j].key() })
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// merge folds other's scenario cells into a, replacing same-key cells —
// how -append accumulates embedded and HTTP runs into one artifact.
func (a *Artifact) merge(other *Artifact) {
	byKey := make(map[string]int, len(a.Scenarios))
	for i, s := range a.Scenarios {
		byKey[s.key()] = i
	}
	for _, s := range other.Scenarios {
		if i, ok := byKey[s.key()]; ok {
			a.Scenarios[i] = s
		} else {
			a.Scenarios = append(a.Scenarios, s)
		}
	}
}

// calibrationScore times a fixed CPU-bound loop (xorshift over a 512KiB
// working set) and returns mega-iterations/second. It is the unit
// regression comparison normalizes throughput by, so baselines recorded
// on one machine transfer to another.
func calibrationScore() float64 {
	const iters = 1 << 23
	buf := make([]uint64, 1<<16)
	x := uint64(0x9E3779B97F4A7C15)
	var sink uint64
	start := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[x&(1<<16-1)] += x
		sink ^= buf[(x>>16)&(1<<16-1)]
	}
	elapsed := time.Since(start)
	runtime.KeepAlive(sink)
	if elapsed <= 0 {
		return 0
	}
	return float64(iters) / elapsed.Seconds() / 1e6
}

// minGateOps is the sample floor for gating: a baseline cell that
// completed fewer operations than this in its window is too noisy for a
// percentage threshold (one scheduler hiccup swings it), so compare only
// notes it instead of failing.
const minGateOps = 1000

// compareArtifacts checks current against baseline cell by cell. A cell
// regresses when its calibration-normalized throughput falls more than
// maxRegress below the baseline's, or when the current run lacks it: a
// gated cell that silently vanishes is a lost measurement, not a pass. It
// returns the regression complaints (gate failures) and informational notes
// (thin baseline cells, missing or not, and improvements).
func compareArtifacts(baseline, current *Artifact, maxRegress float64) (regressions, notes []string) {
	scale := 1.0
	if baseline.CalibrationScore > 0 && current.CalibrationScore > 0 {
		scale = current.CalibrationScore / baseline.CalibrationScore
		notes = append(notes, fmt.Sprintf("calibration: baseline %.1f, current %.1f (scale %.2fx)",
			baseline.CalibrationScore, current.CalibrationScore, scale))
	}
	cur := make(map[string]ScenarioResult, len(current.Scenarios))
	for _, s := range current.Scenarios {
		cur[s.key()] = s
	}
	for _, b := range baseline.Scenarios {
		if b.Ops < minGateOps {
			notes = append(notes, fmt.Sprintf("%s: only %d baseline ops — too few to gate, skipping", b.key(), b.Ops))
			continue
		}
		c, ok := cur[b.key()]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: gated baseline cell missing from the current run", b.key()))
			continue
		}
		expected := b.Throughput * scale
		if expected <= 0 {
			continue
		}
		change := c.Throughput/expected - 1
		switch {
		case change < -maxRegress:
			regressions = append(regressions, fmt.Sprintf(
				"%s: throughput %.0f ops/s is %.0f%% below baseline %.0f ops/s (normalized; limit %.0f%%)",
				b.key(), c.Throughput, -change*100, expected, maxRegress*100))
		default:
			notes = append(notes, fmt.Sprintf("%s: %+.0f%% vs baseline (%.0f ops/s)",
				b.key(), change*100, c.Throughput))
		}
	}
	return regressions, notes
}
