package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"reachac"
	"reachac/internal/graph"
	"reachac/internal/httpapi"
	"reachac/internal/pathexpr"
	"reachac/internal/search"
	"reachac/internal/wal"
)

// Replay sizes. The layers below the outside boundaries cannot be wrapped
// without editing the program, so the traced run calls each one's public
// function directly, on the state the run left, with inputs drawn from the
// workload's own distribution.
const (
	replayChecks    = 5000 // CanAccess and Reachable on the same pairs
	replayAudiences = 256
	replayPublishes = 100 // relate+check then unrelate+check: two publications each
	replayDeltas    = 1000
	replayAppends   = 500
	replayParses    = 200 // passes over both catalogs
	replayCodecs    = 2000
)

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func p50(xs []float64) float64 { return percentile(xs, 0.5) }
func p99(xs []float64) float64 { return percentile(xs, 0.99) }

// layers collects the traced run's metrics with the sample count behind each.
type layers struct {
	v map[string]float64
	n map[string]uint64
}

func (l *layers) set(name string, value float64, samples int) {
	l.v[name], l.n[name] = value, uint64(samples)
}

// noopTarget is the harness's self-check target: what the paced loop reports
// against it is the harness's own contribution to every paced latency.
type noopTarget struct{}

func (noopTarget) do(context.Context, int, *op) (string, error) { return "", nil }

// replayLayers measures the inner layers on e's quiesced state.
func replayLayers(e *env, m *layers, outDir string) error {
	checks := *e.w
	checks.mix, checks.pinEvery = mix{check: 1}, 0
	gen := newGenerator(&checks, e.adj, e.specs, e.seed+4, 0, 1)
	sample := make([]op, replayChecks)
	for i := range sample {
		sample[i] = gen.next()
	}
	paths := make([]*pathexpr.Path, len(e.specs))
	for i, s := range e.specs {
		p, err := pathexpr.Parse(s.path)
		if err != nil {
			return err
		}
		paths[i] = p
	}

	// reachac: the whole embedded decision (snapshot pin, rule lookup,
	// planner, caches, search).
	var check []float64
	for _, o := range sample {
		t := time.Now()
		if _, err := e.net.CanAccess(e.specs[o.res].name, reachac.UserID(o.requester)); err != nil {
			return err
		}
		check = append(check, us(time.Since(t)))
	}
	m.set("reachac.check_us", p50(check), len(check))
	m.set("reachac.check_p99_us", p99(check), len(check))

	// graph: what a full republication pays at this size.
	var clone, csr []float64
	var g *graph.Graph
	for i := 0; i < 3; i++ {
		t := time.Now()
		g = e.net.Graph().Clone()
		clone = append(clone, us(time.Since(t))/1e3)
		t = time.Now()
		g.BuildCSR()
		csr = append(csr, us(time.Since(t))/1e3)
	}
	m.set("graph.clone_ms", p50(clone), len(clone))
	m.set("graph.csr_build_ms", p50(csr), len(csr))

	// search: the flat product-BFS alone, on the same pairs over the same
	// relationships, and one audience per resource.
	eng := search.New(g)
	var reach, aud []float64
	for _, o := range sample {
		t := time.Now()
		if _, err := eng.Reachable(graph.NodeID(e.specs[o.res].owner), graph.NodeID(o.requester), paths[o.res]); err != nil {
			return err
		}
		reach = append(reach, us(time.Since(t)))
	}
	for i := 0; i < len(e.specs) && i < replayAudiences; i++ {
		t := time.Now()
		if _, err := eng.AudienceSet(graph.NodeID(e.specs[i].owner), paths[i]); err != nil {
			return err
		}
		aud = append(aud, us(time.Since(t)))
	}
	m.set("search.reachable_us", p50(reach), len(reach))
	m.set("search.reachable_p99_us", p99(reach), len(reach))
	m.set("search.audience_us", p50(aud), len(aud))
	m.set("reachac.self_check_us", m.v["reachac.check_us"]-m.v["search.reachable_us"], len(check))

	// reachac: a mutation's acknowledgement (with the WAL on a durable
	// network) and the first check after it, which pays for publication.
	toggles := *e.w
	toggles.mix, toggles.pinEvery = mix{toggle: 1}, 0
	tgen := newGenerator(&toggles, e.adj, e.specs, e.seed+5, 0, 1)
	var mutate, publish []float64
	for i := 0; i < replayPublishes; i++ {
		ed := tgen.next()
		o := sample[i%len(sample)]
		for _, mutation := range []func(from, to reachac.UserID, relType string) error{e.net.Relate, e.net.Unrelate} {
			t := time.Now()
			if err := mutation(reachac.UserID(ed.from), reachac.UserID(ed.to), ed.label); err != nil {
				break // the edge is one a worker left live; take the next
			}
			mutate = append(mutate, us(time.Since(t)))
			t = time.Now()
			if _, err := e.net.CanAccess(e.specs[o.res].name, reachac.UserID(o.requester)); err != nil {
				return err
			}
			publish = append(publish, us(time.Since(t))-m.v["reachac.check_us"])
		}
	}
	m.set("reachac.mutate_us", p50(mutate), len(mutate))
	m.set("reachac.publish_us", p50(publish), len(publish))
	m.set("reachac.publish_p99_us", p99(publish), len(publish))

	// graph: fast-forwarding a clone through the delta log.
	behind := g.Clone()
	version := g.Version()
	rng := rand.New(rand.NewSource(e.seed + 6))
	for added := 0; added < replayDeltas; {
		from, to := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
		if _, err := g.AddEdge(from, to, "friend"); err == nil {
			added++
		}
	}
	deltas, ok := g.ChangesSince(version)
	if !ok {
		return fmt.Errorf("delta log does not reach back %d mutations", replayDeltas)
	}
	t := time.Now()
	for _, d := range deltas {
		if err := behind.Apply(d); err != nil {
			return err
		}
	}
	m.set("graph.apply_us_per_delta", us(time.Since(t))/float64(len(deltas)), len(deltas))

	if err := replayWAL(m, outDir); err != nil {
		return err
	}

	// pathexpr: what a share pays to parse its conditions.
	exprs := append(defaultCatalog(), deepCatalog...)
	t = time.Now()
	for i := 0; i < replayParses; i++ {
		for _, s := range exprs {
			if _, err := pathexpr.Parse(s); err != nil {
				return err
			}
		}
	}
	m.set("pathexpr.parse_us", us(time.Since(t))/float64(replayParses*len(exprs)), replayParses*len(exprs))

	// httpapi: the JSON a check response and a batch request cost.
	decision := httpapi.Decision{Resource: "res00001", Requester: "u000001", Effect: "deny", Reason: "no access rule satisfied"}
	batch := httpapi.CheckBatchRequest{Resource: "res00001"}
	for i := 0; i < batchSize; i++ {
		batch.Requesters = append(batch.Requesters, fmt.Sprintf("u%06d", i))
	}
	body, err := json.Marshal(batch)
	if err != nil {
		return err
	}
	var codec []float64
	for i := 0; i < replayCodecs; i++ {
		var buf bytes.Buffer
		var req httpapi.CheckBatchRequest
		t := time.Now()
		if err := json.NewEncoder(&buf).Encode(decision); err != nil {
			return err
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return err
		}
		codec = append(codec, us(time.Since(t)))
	}
	m.set("httpapi.codec_us", p50(codec), len(codec))
	return nil
}

// replayWAL appends one-op record groups to a scratch log under SyncAlways,
// then recovers the directory. The ops add nodes, so the log replays on its
// own.
func replayWAL(m *layers, outDir string) error {
	dir, err := scratchDir(outDir, "wal-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	var appends []float64
	for i := 0; i < replayAppends; i++ {
		group := []wal.Op{wal.GraphOp(graph.Delta{Op: graph.OpAddNode, Name: fmt.Sprintf("n%06d", i)})}
		t := time.Now()
		if err := log.Append(group); err != nil {
			log.Close()
			return err
		}
		appends = append(appends, us(time.Since(t)))
	}
	size := log.Size()
	if err := log.Close(); err != nil {
		return err
	}
	t := time.Now()
	rec, err := wal.Recover(dir)
	if err != nil {
		return err
	}
	if rec.Groups != replayAppends {
		return fmt.Errorf("recovered %d of %d appended groups", rec.Groups, replayAppends)
	}
	m.set("wal.replay_us_per_op", us(time.Since(t))/replayAppends, replayAppends)
	m.set("wal.append_us", p50(appends), replayAppends)
	m.set("wal.append_p99_us", p99(appends), replayAppends)
	m.set("wal.bytes_per_mut", float64(size)/replayAppends, replayAppends)
	return nil
}
