package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"reachac"
	"reachac/client"
	"reachac/internal/generate"
	"reachac/internal/graph"
	"reachac/internal/httpapi"
	"reachac/internal/loadgen"
	"reachac/internal/server"
	"reachac/internal/shard"
	"reachac/internal/workload"
)

// target abstracts where operations land: the embedded facade or an
// acserverd over HTTP. A target carries per-worker rule stacks so churn
// revokes use the rule IDs its own shares returned.
type target interface {
	// do executes one generated operation for a worker.
	do(ctx context.Context, worker int, op workload.Op) error
	// stats returns the cumulative engine counters plus, when serving,
	// the server's; runScenario subtracts before from after.
	stats() (Counters, error)
	// classify maps an operation error to a loadgen outcome.
	classify(err error) loadgen.Outcome
	// close releases the target (self-hosted servers shut down here; an
	// external daemon gets this run's leftover mutations undone).
	close() error
}

// ruleStacks tracks, per worker and resource, the rule IDs returned by
// this run's shares, FIFO, matching the generator's churn accounting.
type ruleStacks [][][]string

func newRuleStacks(workers, resources int) ruleStacks {
	s := make(ruleStacks, workers)
	for w := range s {
		s[w] = make([][]string, resources)
	}
	return s
}

func (s ruleStacks) push(worker, resource int, rule string) {
	s[worker][resource] = append(s[worker][resource], rule)
}

func (s ruleStacks) pop(worker, resource int) (string, bool) {
	q := s[worker][resource]
	if len(q) == 0 {
		return "", false
	}
	rule := q[0]
	s[worker][resource] = q[1:]
	return rule, true
}

// --- embedded ---

// embeddedTarget drives the reachac facade in-process: pure engine +
// snapshot-publication cost, no wire.
type embeddedTarget struct {
	net   *reachac.Network
	specs []workload.ResourceSpec
	rules ruleStacks
}

// newEmbeddedTarget builds a network over a private clone of g (each
// scenario starts from the pristine graph), pre-shares the scenario's
// resources in one batch.
func newEmbeddedTarget(g *graph.Graph, specs []workload.ResourceSpec, workers int) (*embeddedTarget, error) {
	n := reachac.FromGraph(g.Clone())
	if err := shareSpecs(n, specs); err != nil {
		return nil, err
	}
	return &embeddedTarget{net: n, specs: specs, rules: newRuleStacks(workers, len(specs))}, nil
}

func shareSpecs(n *reachac.Network, specs []workload.ResourceSpec) error {
	return n.Batch(func(tx *reachac.Tx) error {
		for _, spec := range specs {
			if _, err := tx.Share(spec.Name, spec.Owner, spec.Paths...); err != nil {
				return fmt.Errorf("pre-sharing %s: %w", spec.Name, err)
			}
		}
		return nil
	})
}

func (t *embeddedTarget) do(ctx context.Context, worker int, op workload.Op) error {
	spec := t.specs[op.Resource]
	switch op.Kind {
	case workload.OpCheck:
		_, err := t.net.CanAccess(spec.Name, op.Requester)
		return err
	case workload.OpCheckBatch:
		_, err := t.net.CanAccessAll(spec.Name, op.Requesters)
		return err
	case workload.OpAudience:
		_, err := t.net.Audience(spec.Name)
		return err
	case workload.OpRelate:
		return t.net.Relate(op.From, op.To, op.RelType)
	case workload.OpUnrelate:
		return t.net.Unrelate(op.From, op.To, op.RelType)
	case workload.OpShare:
		rule, err := t.net.Share(spec.Name, op.Owner, op.Paths...)
		if err == nil {
			t.rules.push(worker, op.Resource, rule)
		}
		return err
	case workload.OpRevoke:
		rule, ok := t.rules.pop(worker, op.Resource)
		if !ok {
			// The matching share failed earlier; share instead to keep
			// policy pressure up, and track the rule so a later revoke
			// balances it.
			rule, err := t.net.Share(spec.Name, spec.Owner, spec.Paths...)
			if err == nil {
				t.rules.push(worker, op.Resource, rule)
			}
			return err
		}
		t.net.Revoke(spec.Name, rule)
		return nil
	default:
		return fmt.Errorf("unknown op kind %v", op.Kind)
	}
}

func (t *embeddedTarget) stats() (Counters, error) {
	return countersFromStats(t.net.Stats(), nil), nil
}

func (t *embeddedTarget) classify(err error) loadgen.Outcome {
	if err != nil {
		return loadgen.Error
	}
	return loadgen.OK
}

func (t *embeddedTarget) close() error { return nil }

// --- streamed embedded ---

// viewSource adapts a pinned engine snapshot to workload.Source, so
// streamed cells can build resource specs and generators without reading
// the graph the network owns and mutates.
type viewSource struct{ v *reachac.View }

func (s viewSource) NumNodes() int                { return s.v.NumUsers() }
func (s viewSource) OutDegree(n graph.NodeID) int { return s.v.OutDegree(n) }
func (s viewSource) Neighbors(n graph.NodeID, fn func(graph.NodeID) bool) {
	s.v.Relationships(n, func(to reachac.UserID, _ string) bool { return fn(to) })
}
func (s viewSource) HasEdge(from, to graph.NodeID, relType string) bool {
	return s.v.HasRelationship(from, to, relType)
}

// streamedCellTarget is an embeddedTarget whose network owns the cell's
// graph (built for the cell and handed to FromGraph, never shared with
// other cells), plus the snapshot pin the workload was built against. The
// pin must be released (releaseView) before the measured window so
// publication advances cheaply under mutation.
type streamedCellTarget struct {
	embeddedTarget
	view *reachac.View
}

func (t *streamedCellTarget) releaseView() {
	if t.view != nil {
		t.view.Close()
		t.view = nil
	}
}

func (t *streamedCellTarget) close() error {
	t.releaseView()
	return t.embeddedTarget.close()
}

// streamedCell bundles what runScenario needs from a per-cell build: the
// target, the Source the generators sample (valid until release), the
// pre-shared specs, and the loaded counts.
type streamedCell struct {
	target       *streamedCellTarget
	src          workload.Source
	specs        []workload.ResourceSpec
	nodes, edges int
}

func (c *streamedCell) release() { c.target.releaseView() }

// newStreamedCell builds an embedded cell for node counts at/above
// -stream-min: the topology built with generate.Build and handed to
// FromGraph, so the cell's network holds the only copy of the graph, then
// specs and a pinned view for workload construction.
func newStreamedCell(top generate.Topology, sc workload.Scenario, cfg benchConfig) (*streamedCell, error) {
	g, err := generate.Build(top)
	if err != nil {
		return nil, err
	}
	n := reachac.FromGraph(g)
	v, err := n.View()
	if err != nil {
		return nil, err
	}
	src := viewSource{v}
	specs := sc.Resources(src, cfg.resources, cfg.seed+1)
	if err := shareSpecs(n, specs); err != nil {
		v.Close()
		return nil, err
	}
	t := &streamedCellTarget{
		embeddedTarget: embeddedTarget{net: n, specs: specs, rules: newRuleStacks(cfg.workers, len(specs))},
		view:           v,
	}
	return &streamedCell{
		target: t, src: src, specs: specs,
		nodes: n.NumUsers(), edges: n.NumRelationships(),
	}, nil
}

// --- sharded embedded ---

// shardedTarget drives an in-process shard router over N embedded
// networks: hash-ring placement, boundary-edge replication and
// scatter-gather cost included, but no wire. The graph and resources are
// seeded THROUGH the router, so the benchmark exercises the same placement
// the router will query.
type shardedTarget struct {
	r     *shard.Router
	specs []workload.ResourceSpec
	rules ruleStacks
}

func (t *shardedTarget) name(id graph.NodeID) string { return generate.UserName(int(id)) }

func newShardedTarget(g *graph.Graph, specs []workload.ResourceSpec, workers, shards int) (*shardedTarget, error) {
	backends := make([]shard.Backend, shards)
	for i := range backends {
		backends[i] = shard.NewEmbedded(reachac.New())
	}
	ctx := context.Background()
	r, err := shard.New(ctx, backends, shard.Config{})
	if err != nil {
		return nil, err
	}
	t := &shardedTarget{r: r, specs: specs, rules: newRuleStacks(workers, len(specs))}
	for i, nodes := 0, g.NumNodes(); i < nodes; i++ {
		if _, err := r.AddUser(ctx, generate.UserName(i), nil); err != nil {
			return nil, fmt.Errorf("seeding user %d: %w", i, err)
		}
	}
	var seedErr error
	g.Edges(func(e graph.Edge) bool {
		err := r.Relate(ctx, t.name(e.From), t.name(e.To), g.LabelName(e.Label), false)
		if err != nil {
			seedErr = fmt.Errorf("seeding relationship: %w", err)
			return false
		}
		return true
	})
	if seedErr != nil {
		return nil, seedErr
	}
	for _, spec := range specs {
		if _, err := r.Share(ctx, spec.Name, t.name(spec.Owner), spec.Paths); err != nil {
			return nil, fmt.Errorf("pre-sharing %s: %w", spec.Name, err)
		}
	}
	return t, nil
}

func (t *shardedTarget) do(ctx context.Context, worker int, op workload.Op) error {
	spec := t.specs[op.Resource]
	switch op.Kind {
	case workload.OpCheck:
		_, err := t.r.Check(ctx, spec.Name, t.name(op.Requester))
		return err
	case workload.OpCheckBatch:
		names := make([]string, len(op.Requesters))
		for i, id := range op.Requesters {
			names[i] = t.name(id)
		}
		_, err := t.r.CheckBatch(ctx, spec.Name, names)
		return err
	case workload.OpAudience:
		_, _, err := t.r.Audience(ctx, spec.Name)
		return err
	case workload.OpRelate:
		return t.r.Relate(ctx, t.name(op.From), t.name(op.To), op.RelType, false)
	case workload.OpUnrelate:
		return t.r.Unrelate(ctx, t.name(op.From), t.name(op.To), op.RelType)
	case workload.OpShare:
		rule, err := t.r.Share(ctx, spec.Name, t.name(op.Owner), op.Paths)
		if err == nil {
			t.rules.push(worker, op.Resource, rule)
		}
		return err
	case workload.OpRevoke:
		rule, ok := t.rules.pop(worker, op.Resource)
		if !ok {
			rule, err := t.r.Share(ctx, spec.Name, t.name(spec.Owner), spec.Paths)
			if err == nil {
				t.rules.push(worker, op.Resource, rule)
			}
			return err
		}
		_, err := t.r.Revoke(ctx, spec.Name, rule)
		return err
	default:
		return fmt.Errorf("unknown op kind %v", op.Kind)
	}
}

func (t *shardedTarget) stats() (Counters, error) {
	st, err := t.r.Stats(context.Background())
	if err != nil {
		return Counters{}, err
	}
	c := countersFromStats(st.Stats, nil)
	if rs := st.Router; rs != nil {
		c.RouterFastPath = rs.FastPath
		c.RouterScatter = rs.Scatter
		c.RouterExpand = rs.ExpandCalls
	}
	return c, nil
}

func (t *shardedTarget) classify(err error) loadgen.Outcome {
	if err != nil {
		return loadgen.Error
	}
	return loadgen.OK
}

func (t *shardedTarget) close() error { return t.r.Close() }

// --- HTTP ---

// httpTarget drives an acserverd over real HTTP through the typed client:
// serving-layer cost included (admission control, coalesced WAL commits,
// JSON encode/decode, loopback TCP).
type httpTarget struct {
	c     *client.Client
	specs []workload.ResourceSpec
	rules ruleStacks
	// cleanup, set for external daemons (which persist across scenario
	// cells and acbench runs), makes close undo this run's leftover
	// mutations: still-live toggled edges and still-outstanding churn
	// rules. liveEdges is per-worker (workers run serially within
	// themselves; close runs after all of them stop).
	cleanup   bool
	liveEdges [][]edgeRef
	shutdown  func() error
}

// edgeRef names one relationship this run added over the wire.
type edgeRef struct {
	from, to, relType string
}

func (t *httpTarget) name(id graph.NodeID) string { return generate.UserName(int(id)) }

func (t *httpTarget) do(ctx context.Context, worker int, op workload.Op) error {
	spec := t.specs[op.Resource]
	switch op.Kind {
	case workload.OpCheck:
		_, err := t.c.Check(ctx, spec.Name, t.name(op.Requester))
		return err
	case workload.OpCheckBatch:
		names := make([]string, len(op.Requesters))
		for i, id := range op.Requesters {
			names[i] = t.name(id)
		}
		_, err := t.c.CheckBatch(ctx, spec.Name, names)
		return err
	case workload.OpAudience:
		_, err := t.c.Audience(ctx, spec.Name)
		return err
	case workload.OpRelate:
		err := t.c.Relate(ctx, t.name(op.From), t.name(op.To), op.RelType)
		if err == nil && t.cleanup {
			t.liveEdges[worker] = append(t.liveEdges[worker],
				edgeRef{t.name(op.From), t.name(op.To), op.RelType})
		}
		return err
	case workload.OpUnrelate:
		err := t.c.Unrelate(ctx, t.name(op.From), t.name(op.To), op.RelType)
		if err == nil && t.cleanup {
			t.dropLiveEdge(worker, edgeRef{t.name(op.From), t.name(op.To), op.RelType})
		}
		return err
	case workload.OpShare:
		rule, err := t.c.Share(ctx, spec.Name, t.name(op.Owner), op.Paths...)
		if err == nil {
			t.rules.push(worker, op.Resource, rule)
		}
		return err
	case workload.OpRevoke:
		rule, ok := t.rules.pop(worker, op.Resource)
		if !ok {
			rule, err := t.c.Share(ctx, spec.Name, t.name(spec.Owner), spec.Paths...)
			if err == nil {
				t.rules.push(worker, op.Resource, rule)
			}
			return err
		}
		_, err := t.c.Revoke(ctx, spec.Name, rule)
		return err
	default:
		return fmt.Errorf("unknown op kind %v", op.Kind)
	}
}

func (t *httpTarget) stats() (Counters, error) {
	st, err := t.c.Stats(context.Background())
	if err != nil {
		return Counters{}, err
	}
	return countersFromStats(st.Stats, &st.Server), nil
}

func (t *httpTarget) classify(err error) loadgen.Outcome {
	switch {
	case err == nil:
		return loadgen.OK
	case errors.Is(err, client.ErrOverloaded):
		return loadgen.Shed
	default:
		return loadgen.Error
	}
}

func (t *httpTarget) dropLiveEdge(worker int, ref edgeRef) {
	edges := t.liveEdges[worker]
	for i, e := range edges {
		if e == ref {
			t.liveEdges[worker] = append(edges[:i], edges[i+1:]...)
			return
		}
	}
}

func (t *httpTarget) close() error {
	if t.cleanup {
		// Undo what the run left behind so the persistent daemon returns
		// to its pre-run state and the next scenario cell (with identical
		// generator seeds and pools) starts clean instead of colliding
		// with still-live duplicates.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		for _, edges := range t.liveEdges {
			for _, e := range edges {
				_ = t.c.Unrelate(ctx, e.from, e.to, e.relType)
			}
		}
		for _, perRes := range t.rules {
			for r, queue := range perRes {
				for _, rule := range queue {
					_, _ = t.c.Revoke(ctx, t.specs[r].Name, rule)
				}
			}
		}
	}
	if t.shutdown != nil {
		return t.shutdown()
	}
	return nil
}

// newSelfHostedTarget starts a real acserverd serving stack (durable
// network created from a clone of g in a temp directory, coalescing
// server, loopback listener), pre-shares the resources, and returns an
// httpTarget driving it.
func newSelfHostedTarget(g *graph.Graph, specs []workload.ResourceSpec, workers int, sync reachac.Option) (*httpTarget, error) {
	dir, err := os.MkdirTemp("", "acbench-*")
	if err != nil {
		return nil, err
	}
	fail := func(e error) (*httpTarget, error) {
		os.RemoveAll(dir)
		return nil, e
	}
	n, err := reachac.Create(dir, g.Clone(), sync)
	if err != nil {
		return fail(err)
	}
	if err := shareSpecs(n, specs); err != nil {
		n.Close()
		return fail(err)
	}
	srv := server.New(n, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return fail(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	c, err := client.New(ln.Addr().String())
	if err != nil {
		hs.Close()
		srv.Shutdown(context.Background())
		return fail(err)
	}
	shutdown := func() error {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		os.RemoveAll(dir)
		return err
	}
	return &httpTarget{c: c, specs: specs, rules: newRuleStacks(workers, len(specs)), shutdown: shutdown}, nil
}

// newExternalTarget drives an already-running acserverd at addr. Unless
// alreadySeeded (a previous scenario cell of this run loaded it), the
// graph and resources are loaded over the wire; duplicate users,
// relationships and re-registered resources are tolerated so repeated
// runs against a persistent daemon work.
func newExternalTarget(addr string, g *graph.Graph, specs []workload.ResourceSpec, workers int, alreadySeeded bool) (*httpTarget, error) {
	c, err := client.New(addr)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if _, err := c.Stats(ctx); err != nil {
		return nil, fmt.Errorf("probing %s: %w", addr, err)
	}
	if !alreadySeeded {
		for i, node := 0, g.NumNodes(); i < node; i++ {
			if _, err := c.AddUser(ctx, generate.UserName(i), nil); err != nil && !errors.Is(err, reachac.ErrDuplicateUser) {
				return nil, fmt.Errorf("seeding user %d: %w", i, err)
			}
		}
		var seedErr error
		g.Edges(func(e graph.Edge) bool {
			err := c.Relate(ctx, generate.UserName(int(e.From)), generate.UserName(int(e.To)), g.LabelName(e.Label))
			if err != nil && !errors.Is(err, reachac.ErrDuplicateRelationship) {
				seedErr = fmt.Errorf("seeding relationship: %w", err)
				return false
			}
			return true
		})
		if seedErr != nil {
			return nil, seedErr
		}
		for _, spec := range specs {
			if _, err := c.Share(ctx, spec.Name, generate.UserName(int(spec.Owner)), spec.Paths...); err != nil {
				return nil, fmt.Errorf("pre-sharing %s: %w", spec.Name, err)
			}
		}
	}
	return &httpTarget{
		c:         c,
		specs:     specs,
		rules:     newRuleStacks(workers, len(specs)),
		cleanup:   true,
		liveEdges: make([][]edgeRef, workers),
	}, nil
}

func countersFromStats(st reachac.Stats, srv *httpapi.ServerStats) Counters {
	c := Counters{
		Checks:         st.Checks,
		BatchChecks:    st.BatchChecks,
		Audiences:      st.Audiences,
		Mutations:      st.Mutations,
		Batches:        st.Batches,
		Republications: st.Republications,
		WALAppends:     st.WALAppends,
		WALFsyncs:      st.WALFsyncs,
	}
	if srv != nil {
		c.CommitGroups = srv.CommitGroups
		c.QueueRejected = srv.QueueRejected
		c.CheckRejected = srv.CheckRejected
	}
	return c
}
