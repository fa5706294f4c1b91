package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"reachac"
	"reachac/client"
	"reachac/internal/generate"
	"reachac/internal/graph"
	"reachac/internal/server"
)

// target is where operations land: the embedded library, the HTTP stack, or
// the no-op the harness checks its own pacing against.
type target interface {
	// do executes one operation for a worker; rule is the ID a share returned.
	do(ctx context.Context, worker int, o *op) (rule string, err error)
}

type embeddedTarget struct {
	net   *reachac.Network
	specs []resSpec
	ids   [][]reachac.UserID // per-worker CheckBatch scratch
	views []*reachac.View    // per-worker pinned view, see workloadSpec.pinEvery
}

// unpin closes the views the workers still hold.
func (t *embeddedTarget) unpin() {
	for i, v := range t.views {
		if v != nil {
			v.Close()
			t.views[i] = nil
		}
	}
}

func (t *embeddedTarget) do(_ context.Context, worker int, o *op) (string, error) {
	switch o.kind {
	case opCheck:
		_, err := t.net.CanAccess(t.specs[o.res].name, reachac.UserID(o.requester))
		return "", err
	case opBatch:
		ids := t.ids[worker][:0]
		for _, r := range o.batch {
			ids = append(ids, reachac.UserID(r))
		}
		t.ids[worker] = ids
		_, err := t.net.CanAccessAll(t.specs[o.res].name, ids)
		return "", err
	case opPin:
		if v := t.views[worker]; v != nil {
			v.Close()
		}
		var err error
		t.views[worker], err = t.net.View()
		return "", err
	case opRelate:
		return "", t.net.Relate(reachac.UserID(o.from), reachac.UserID(o.to), o.label)
	case opUnrelate:
		return "", t.net.Unrelate(reachac.UserID(o.from), reachac.UserID(o.to), o.label)
	case opShare:
		s := &t.specs[o.res]
		return t.net.Share(s.name, reachac.UserID(s.owner), o.path)
	default:
		if !t.net.Revoke(t.specs[o.res].name, o.rule) {
			return "", fmt.Errorf("revoke %s of %s: rule not found", o.rule, t.specs[o.res].name)
		}
		return "", nil
	}
}

type httpTarget struct {
	c     *client.Client
	specs []resSpec
	names []string   // member names by ID
	batch [][]string // per-worker CheckBatch scratch
}

func (t *httpTarget) do(ctx context.Context, worker int, o *op) (string, error) {
	switch o.kind {
	case opCheck:
		_, err := t.c.Check(ctx, t.specs[o.res].name, t.names[o.requester])
		return "", err
	case opBatch:
		names := t.batch[worker][:0]
		for _, r := range o.batch {
			names = append(names, t.names[r])
		}
		t.batch[worker] = names
		_, err := t.c.CheckBatch(ctx, t.specs[o.res].name, names)
		return "", err
	case opPin:
		return "", errors.New("a pin needs the embedded library: the HTTP API has no request that outlives a publication")
	case opRelate:
		return "", t.c.Relate(ctx, t.names[o.from], t.names[o.to], o.label)
	case opUnrelate:
		return "", t.c.Unrelate(ctx, t.names[o.from], t.names[o.to], o.label)
	case opShare:
		s := &t.specs[o.res]
		return t.c.Share(ctx, s.name, t.names[s.owner], o.path)
	default:
		removed, err := t.c.Revoke(ctx, t.specs[o.res].name, o.rule)
		if err == nil && !removed {
			err = fmt.Errorf("revoke %s of %s: rule not found", o.rule, t.specs[o.res].name)
		}
		return "", err
	}
}

// env is one loaded system under test plus what the harness needs to drive it.
type env struct {
	w       *workloadSpec
	seed    int64
	workers int
	net     *reachac.Network
	adj     *adjacency
	specs   []resSpec
	names   []string // member names by ID, HTTP workloads only
	tgt     target
	// gens are the workers' generators; warm-up and every measured phase
	// continue the same streams, so the live edges and rules they track are
	// the whole of what the run added.
	gens []*generator

	// HTTP workloads only.
	dir string
	srv *server.Server
	hs  *http.Server
	cli *client.Client

	// Set-up stage times: generate.Build, load (import or FromGraph, share,
	// and on a durable network the checkpoint that leaves a clean log), and
	// the first publication.
	genS, loadS, engineS, totalS float64
	heapMB                       float64
}

// warmOps is the number of warm-up operations each worker issues during
// set-up. A count, not a duration, so that set-up time measures work.
const warmOps = 5000

// setup builds the workload's system from the seed: generate the topology,
// load it, share the resources, publish, listen, warm up. With a recorder
// the HTTP stack is built with the tracing wrappers in place; without one
// they are absent, so the untraced run pays nothing for them.
func setup(w *workloadSpec, seed int64, workers int, outDir string, rec *recorder) (_ *env, err error) {
	start := time.Now()
	e := &env{w: w, seed: seed, workers: workers}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	top, err := generate.New("ldbc", generate.WithNodes(w.nodes), generate.WithDegree(8), generate.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	g, err := generate.Build(top)
	if err != nil {
		return nil, err
	}
	e.genS = time.Since(start).Seconds()
	e.adj = newAdjacency(g)
	e.specs = makeSpecs(w, e.adj, seed+1)

	loadStart := time.Now()
	if w.http {
		if e.dir, err = scratchDir(outDir, "wal-"+w.name+"-"); err != nil {
			return nil, err
		}
		// acserverd's stack with -sync never; the flush policy is stated in
		// the output. Under its default, SyncAlways, a flush is 150 us of a
		// 260 us write here, 410 us while a neighbour writes to the same disk,
		// and between flushes both cores halt, so that the host's wake-up time
		// is in every latency: http-write's numbers were the host's disk
		// queue (ops_per_s spread 26-36 % over ten runs of one commit).
		// Without the flush the log is still encoded, chained and written,
		// and the reopen check still holds: the process does not crash.
		if e.net, err = reachac.Open(e.dir, reachac.WithEngine(reachac.Online), reachac.WithSync(reachac.SyncNever)); err != nil {
			return nil, err
		}
		err = importGraph(e.net, g)
	} else {
		e.net = reachac.FromGraph(g, reachac.WithPlanner(reachac.PlannerOptions{}))
	}
	if err == nil {
		err = shareSpecs(e.net, e.specs)
	}
	if err == nil && w.http {
		err = e.net.Checkpoint()
	}
	if err != nil {
		return nil, err
	}
	e.loadS = time.Since(loadStart).Seconds()

	engineStart := time.Now()
	if err := e.net.UseEngine(reachac.Online); err != nil {
		return nil, err
	}
	e.engineS = time.Since(engineStart).Seconds()

	if w.http {
		if err := e.listen(rec); err != nil {
			return nil, err
		}
	} else {
		e.tgt = &embeddedTarget{net: e.net, specs: e.specs, ids: make([][]reachac.UserID, workers), views: make([]*reachac.View, workers)}
	}

	for w := 0; w < workers; w++ {
		e.gens = append(e.gens, newGenerator(e.w, e.adj, e.specs, seed+2, w, workers))
	}
	warm := run(e, e.tgt, phase{ops: warmOps})
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d operations failed: %v", warm.failed, warm.attempted, warm.firstErr)
	}
	e.totalS = time.Since(start).Seconds()
	// Twice: what an earlier set-up round left behind is partly released by
	// finalizers, which the first collection only queues. One collection
	// read 37 or 54 MB on http-check depending on timing; two read 37.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.heapMB = float64(ms.HeapAlloc) / 1e6
	return e, nil
}

// listen serves the network on loopback and connects a client holding
// exactly one keep-alive connection per worker.
func (e *env) listen(rec *recorder) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = server.New(e.net, server.Config{})
	var handler http.Handler = e.srv
	var transport http.RoundTripper = &http.Transport{MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers}
	if rec != nil {
		handler = &tracedHandler{next: handler, rec: rec}
		transport = &tracedTransport{next: transport, rec: rec}
	}
	e.hs = &http.Server{Handler: handler}
	go e.hs.Serve(ln) // returns when close calls hs.Close
	e.cli, err = client.New(ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: transport, Timeout: 30 * time.Second}))
	if err != nil {
		return err
	}
	e.names = make([]string, e.adj.nodes())
	for i := range e.names {
		e.names[i] = generate.UserName(i)
	}
	e.tgt = &httpTarget{c: e.cli, specs: e.specs, names: e.names, batch: make([][]string, e.workers)}
	return nil
}

// stopServing stops the listener and drains the server, which checkpoints and
// closes the network; the directory stays for the reopen check.
func (e *env) stopServing() error {
	if e.hs == nil {
		return nil
	}
	e.hs.Close()
	e.hs = nil
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return e.srv.Shutdown(ctx)
}

// unpin closes the views a workload with pinEvery left open, so that what
// follows the measured phases sees no reader in flight.
func (e *env) unpin() {
	if t, ok := e.tgt.(*embeddedTarget); ok {
		t.unpin()
	}
}

func (e *env) close() error {
	var err error
	e.unpin()
	if e.srv != nil {
		err = e.stopServing()
	} else if e.net != nil {
		err = e.net.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
	return err
}

// importGraph replays g into a durable network as one atomic batch; node IDs
// are assigned densely in node order, so they equal g's own.
func importGraph(n *reachac.Network, g *graph.Graph) error {
	return n.Batch(func(tx *reachac.Tx) error {
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
}

func shareSpecs(n *reachac.Network, specs []resSpec) error {
	return n.Batch(func(tx *reachac.Tx) error {
		for _, s := range specs {
			if _, err := tx.Share(s.name, reachac.UserID(s.owner), s.path); err != nil {
				return fmt.Errorf("pre-sharing %s: %w", s.name, err)
			}
		}
		return nil
	})
}

// scratchDir makes a fresh directory under the benchmark's output directory.
func scratchDir(outDir, prefix string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, prefix)
}
