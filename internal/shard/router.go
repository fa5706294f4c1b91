package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reachac"
	"reachac/internal/httpapi"
	"reachac/internal/pathexpr"
	"reachac/internal/ring"
	"reachac/internal/server"
)

var _ server.Service = (*Router)(nil)

// ErrShardUnavailable marks a decision the router refused because a shard it
// needed did not answer; checks FAIL CLOSED on it. The value lives beside the
// wire table that maps it to 503 + CodeShardUnavailable.
var ErrShardUnavailable = httpapi.ErrShardUnavailable

// Config tunes the router; the zero value selects the defaults.
type Config struct {
	// VNodes is the virtual-node count per shard (default ring.DefaultVNodes).
	// Every router and acbench run against the same shard set must agree.
	VNodes int
	// Concurrency bounds in-flight backend calls per scatter (default
	// 2×shards, min 4).
	Concurrency int
	// ShardTimeout is the per-shard deadline on scatter calls (default 2s).
	ShardTimeout time.Duration
	// AuditLimit bounds the router's own decision trail (default 1024).
	// Delegated (fast-path) checks audit on the shard that decided them.
	AuditLimit int
}

func (c Config) withDefaults(shards int) Config {
	if c.VNodes <= 0 {
		c.VNodes = ring.DefaultVNodes
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 2 * shards
		if c.Concurrency < 4 {
			c.Concurrency = 4
		}
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Second
	}
	if c.AuditLimit <= 0 {
		c.AuditLimit = 1024
	}
	return c
}

// parsedCond is one rule condition in router form.
type parsedCond struct {
	expr string // canonical — the key of a request's condition memo
	path *pathexpr.Path
}

type routedRule struct {
	id    string
	conds []parsedCond
}

// resourcePolicy is the router's view of one resource: enough to route
// (owner name → owning shard), to detect cross-shard ownership conflicts,
// and to evaluate scatter checks without re-fetching rules per query.
type resourcePolicy struct {
	owner string
	rules []routedRule
	// depth1 reports every condition of every rule is a single [1,1] step:
	// the owner shard's complete local adjacency answers such policies
	// exactly, so the whole query delegates (single-shard fast path).
	depth1 bool
}

// Router is the server.Service over many shards: it scatters the API across
// its backends. Safe for concurrent use. Create with New, release with Close.
//
// A router remembers no answer: every scatter read sweeps the shards afresh.
// What outlives a request is the policy mirror, the known-user set, the audit
// trail and the counters.
type Router struct {
	backends []Backend
	ring     *ring.Ring
	cfg      Config
	sem      chan struct{}

	// pmu guards the policy routing cache (resource name → policy).
	pmu      sync.RWMutex
	policies map[string]*resourcePolicy

	// kmu guards the known-user set: names the router has created or
	// resolved. Users are never deleted, so membership is stable; misses
	// fall back to a shard resolve.
	kmu   sync.RWMutex
	known map[string]struct{}

	// local is true when every backend is embedded: calls then skip the
	// scatter semaphore and per-shard deadlines — an in-process function
	// call needs neither.
	local bool

	// tmu guards the router-local audit trail of scatter-decided checks —
	// a ring buffer of the last AuditLimit decisions (tpos is the next
	// write slot once the buffer is full).
	tmu   sync.Mutex
	trail []httpapi.Decision
	tpos  int

	fastPath      atomic.Uint64
	scatter       atomic.Uint64
	expandCalls   atomic.Uint64
	expandRounds  atomic.Uint64
	boundaryEdges atomic.Uint64
	localEdges    atomic.Uint64
	partial       atomic.Uint64
	failedClosed  atomic.Uint64
}

// New builds a router over backends, rebuilding the policy routing cache
// from each shard's name-keyed dump (so a router restarted over populated
// shards routes correctly from the first request).
func New(ctx context.Context, backends []Backend, cfg Config) (*Router, error) {
	if len(backends) == 0 {
		return nil, errors.New("shard: need at least one backend")
	}
	cfg = cfg.withDefaults(len(backends))
	rg, err := ring.New(len(backends), cfg.VNodes)
	if err != nil {
		return nil, err
	}
	r := &Router{
		backends: backends,
		ring:     rg,
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.Concurrency),
		policies: make(map[string]*resourcePolicy),
		known:    make(map[string]struct{}),
	}
	r.local = true
	for _, b := range backends {
		if _, ok := b.(*Embedded); !ok {
			r.local = false
			break
		}
	}
	for i, b := range backends {
		cctx, cancel := context.WithTimeout(ctx, cfg.ShardTimeout)
		pols, err := b.Policies(cctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("shard: loading policies from shard %d: %w", i, err)
		}
		for _, p := range pols {
			rp := newPolicy(p.Owner)
			for _, rule := range p.Rules {
				if err := rp.addRule(rule.ID, rule.Paths); err != nil {
					return nil, fmt.Errorf("shard: policy for %q from shard %d: %w", p.Resource, i, err)
				}
			}
			if prev, ok := r.policies[p.Resource]; ok && prev.owner != p.Owner {
				return nil, fmt.Errorf("shard: resource %q owned by %q on one shard and %q on another", p.Resource, prev.owner, p.Owner)
			}
			r.policies[p.Resource] = rp
		}
	}
	return r, nil
}

// newPolicy builds a resourcePolicy for owner with no rules yet (the empty
// rule set is trivially depth-1: it delegates, and the shard denies).
func newPolicy(owner string) *resourcePolicy {
	return &resourcePolicy{owner: owner, depth1: true}
}

// addRule parses and appends one rule, updating the depth-1 classification.
func (rp *resourcePolicy) addRule(id string, paths []string) error {
	rule := routedRule{id: id}
	for _, raw := range paths {
		p, err := pathexpr.Parse(raw)
		if err != nil {
			return err
		}
		rp.depth1 = rp.depth1 && depth1(p)
		rule.conds = append(rule.conds, parsedCond{expr: p.String(), path: p})
	}
	rp.rules = append(rp.rules, rule)
	return nil
}

// depth1 reports p is one [1,1] step, which the owner shard's complete local
// adjacency decides alone.
func depth1(p *pathexpr.Path) bool {
	if len(p.Steps) != 1 {
		return false
	}
	st := p.Steps[0]
	return !st.Unbounded && st.MinDepth == 1 && st.MaxDepth == 1
}

// clone returns a copy safe to mutate while readers hold the old one.
func (rp *resourcePolicy) clone() *resourcePolicy {
	cp := &resourcePolicy{owner: rp.owner, depth1: rp.depth1}
	cp.rules = append(cp.rules, rp.rules...)
	return cp
}

// Shards returns the backend count.
func (r *Router) Shards() int { return len(r.backends) }

// Owner returns the shard index owning name — exposed for tests and the CI
// smoke script's placement assertions (via acshardd logs).
func (r *Router) Owner(name string) int { return r.ring.Owner(name) }

// Close releases every backend, returning the first error.
func (r *Router) Close() error {
	var first error
	for _, b := range r.backends {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (r *Router) policyFor(resource string) *resourcePolicy {
	r.pmu.RLock()
	defer r.pmu.RUnlock()
	return r.policies[resource]
}

// call runs fn against backend i under the scatter semaphore and the
// per-shard deadline; all-embedded routers dispatch directly.
func (r *Router) call(ctx context.Context, i int, fn func(ctx context.Context, b Backend) error) error {
	if r.local {
		return fn(ctx, r.backends[i])
	}
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-r.sem }()
	cctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
	defer cancel()
	return fn(cctx, r.backends[i])
}

// fanOut runs fn on every listed shard concurrently and returns the
// per-shard errors, index-aligned with idxs.
func (r *Router) fanOut(ctx context.Context, idxs []int, fn func(ctx context.Context, i int, b Backend) error) []error {
	errs := make([]error, len(idxs))
	var wg sync.WaitGroup
	for k, i := range idxs {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			errs[k] = r.call(ctx, i, func(ctx context.Context, b Backend) error { return fn(ctx, i, b) })
		}(k, i)
	}
	wg.Wait()
	return errs
}

func allShards(n int) []int {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// --- mutations ---

// AddUser replicates the member (with attributes) to EVERY shard, so any
// shard can resolve names and evaluate predicates. The returned ID is the
// OWNER shard's (IDs are shard-local). A name already present everywhere is
// a duplicate; present somewhere is a healed partial write.
func (r *Router) AddUser(ctx context.Context, name string, attrs map[string]any) (uint32, error) {
	ownerShard := r.ring.Owner(name)
	ids := make([]uint32, len(r.backends))
	errs := r.fanOut(ctx, allShards(len(r.backends)), func(ctx context.Context, i int, b Backend) error {
		id, err := b.AddUser(ctx, name, attrs)
		ids[i] = id
		return err
	})
	dups, succ := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			succ++
		case errors.Is(err, reachac.ErrDuplicateUser):
			dups++
		default:
			return 0, err
		}
	}
	if succ == 0 && dups == len(r.backends) {
		return 0, fmt.Errorf("user %q: %w", name, reachac.ErrDuplicateUser)
	}
	r.kmu.Lock()
	r.known[name] = struct{}{}
	r.kmu.Unlock()
	if errs[ownerShard] == nil {
		return ids[ownerShard], nil
	}
	// The owner shard already had the user (healed write): fetch its ID.
	var id uint32
	err := r.call(ctx, ownerShard, func(ctx context.Context, b Backend) error {
		var e error
		id, e = b.UserID(ctx, name)
		return e
	})
	return id, err
}

// UserID resolves a name on its owner shard.
func (r *Router) UserID(ctx context.Context, name string) (uint32, error) {
	var id uint32
	err := r.call(ctx, r.ring.Owner(name), func(ctx context.Context, b Backend) error {
		var e error
		id, e = b.UserID(ctx, name)
		return e
	})
	if err == nil {
		r.kmu.Lock()
		r.known[name] = struct{}{}
		r.kmu.Unlock()
	}
	return id, err
}

// Relate writes the relationship to the shard owning each endpoint —
// boundary-node replication when they differ, so both owners keep complete
// adjacency for their node. Mutual adds both directions atomically per
// shard. A duplicate on one shard alongside success on the other heals a
// prior partial write; a real failure rolls the success back (best effort).
func (r *Router) Relate(ctx context.Context, from, to, relType string, mutual bool) error {
	targets := r.edgeTargets(from, to)
	errs := r.fanOut(ctx, targets, func(ctx context.Context, i int, b Backend) error {
		return b.Relate(ctx, from, to, relType, mutual)
	})
	dups, succ := 0, 0
	var hard error
	for _, err := range errs {
		switch {
		case err == nil:
			succ++
		case errors.Is(err, reachac.ErrDuplicateRelationship):
			dups++
			if hard == nil {
				hard = err
			}
		default:
			hard = err
		}
	}
	if succ > 0 && dups == len(targets)-succ {
		// Full or healing success: every non-success was a duplicate.
		return nil
	}
	if succ == 0 && dups == len(targets) {
		return hard // duplicate everywhere: a true duplicate
	}
	if succ > 0 {
		// Partial write with a real failure: undo the applied side so the
		// shards stay consistent. Best effort — a crash between the two
		// writes leaves a half-written edge that the next Relate heals.
		for k, i := range targets {
			if errs[k] != nil {
				continue
			}
			_ = r.call(ctx, i, func(ctx context.Context, b Backend) error {
				err := b.Unrelate(ctx, from, to, relType)
				if mutual {
					if e := b.Unrelate(ctx, to, from, relType); err == nil {
						err = e
					}
				}
				return err
			})
		}
	}
	return hard
}

// Unrelate removes the relationship from both endpoint owners. Unknown on
// one shard alongside success on the other heals a prior partial write.
func (r *Router) Unrelate(ctx context.Context, from, to, relType string) error {
	targets := r.edgeTargets(from, to)
	errs := r.fanOut(ctx, targets, func(ctx context.Context, i int, b Backend) error {
		return b.Unrelate(ctx, from, to, relType)
	})
	unknown, succ := 0, 0
	var hard error
	for _, err := range errs {
		switch {
		case err == nil:
			succ++
		case errors.Is(err, reachac.ErrUnknownRelationship):
			unknown++
			if hard == nil {
				hard = err
			}
		default:
			hard = err
		}
	}
	if succ > 0 && unknown == len(targets)-succ {
		return nil
	}
	return hard
}

// edgeTargets returns the distinct owner shards of an edge's endpoints and
// counts the placement (local vs boundary).
func (r *Router) edgeTargets(from, to string) []int {
	a, b := r.ring.Owner(from), r.ring.Owner(to)
	if a == b {
		r.localEdges.Add(1)
		return []int{a}
	}
	r.boundaryEdges.Add(1)
	return []int{a, b}
}

// Share routes the rule to the shard owning the resource owner's name,
// guarding cross-shard ownership conflicts with the router's policy cache
// (each shard alone only sees its own registrations).
func (r *Router) Share(ctx context.Context, resource, owner string, paths []string) (string, error) {
	r.pmu.Lock()
	if prev, ok := r.policies[resource]; ok && prev.owner != owner {
		r.pmu.Unlock()
		return "", fmt.Errorf("resource %q: %w", resource, reachac.ErrResourceOwned)
	}
	r.pmu.Unlock()
	var rule string
	err := r.call(ctx, r.ring.Owner(owner), func(ctx context.Context, b Backend) error {
		var e error
		rule, e = b.Share(ctx, resource, owner, paths)
		return e
	})
	if err != nil {
		return "", err
	}
	r.pmu.Lock()
	defer r.pmu.Unlock()
	rp := r.policies[resource]
	if rp == nil {
		rp = newPolicy(owner)
	} else {
		rp = rp.clone()
	}
	if err := rp.addRule(rule, paths); err != nil {
		return rule, err
	}
	r.policies[resource] = rp
	return rule, nil
}

// Revoke routes to the policy's owner shard; an unregistered resource (or
// unknown rule) reports removed=false, matching the facade.
func (r *Router) Revoke(ctx context.Context, resource, rule string) (bool, error) {
	pol := r.policyFor(resource)
	if pol == nil {
		return false, nil
	}
	var removed bool
	err := r.call(ctx, r.ring.Owner(pol.owner), func(ctx context.Context, b Backend) error {
		var e error
		removed, e = b.Revoke(ctx, resource, rule)
		return e
	})
	if err != nil || !removed {
		return removed, err
	}
	r.pmu.Lock()
	defer r.pmu.Unlock()
	if rp := r.policies[resource]; rp != nil {
		cp := rp.clone()
		cp.rules = cp.rules[:0:0]
		cp.depth1 = true
		for _, ru := range rp.rules {
			if ru.id == rule {
				continue
			}
			cp.rules = append(cp.rules, ru)
			for _, c := range ru.conds {
				cp.depth1 = cp.depth1 && depth1(c.path)
			}
		}
		r.policies[resource] = cp
	}
	return removed, nil
}

// --- stats, audit, health ---

func (r *Router) record(d httpapi.Decision) {
	r.tmu.Lock()
	if len(r.trail) < r.cfg.AuditLimit {
		r.trail = append(r.trail, d)
	} else {
		r.trail[r.tpos] = d
		r.tpos = (r.tpos + 1) % r.cfg.AuditLimit
	}
	r.tmu.Unlock()
}

// Audit returns the router's own decision trail (scatter-decided checks;
// delegated checks audit on the shard that decided them), oldest first,
// bounded to the last n when n > 0.
func (r *Router) Audit(_ context.Context, n int) ([]httpapi.Decision, error) {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	out := make([]httpapi.Decision, 0, len(r.trail))
	out = append(out, r.trail[r.tpos:]...)
	out = append(out, r.trail[:r.tpos]...)
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out, nil
}

// RouterStats snapshots the routing counters.
func (r *Router) RouterStats() httpapi.RouterStats {
	return httpapi.RouterStats{
		Shards:        len(r.backends),
		VNodes:        r.cfg.VNodes,
		FastPath:      r.fastPath.Load(),
		Scatter:       r.scatter.Load(),
		ExpandCalls:   r.expandCalls.Load(),
		ExpandRounds:  r.expandRounds.Load(),
		BoundaryEdges: r.boundaryEdges.Load(),
		LocalEdges:    r.localEdges.Load(),
		Partial:       r.partial.Load(),
		FailedClosed:  r.failedClosed.Load(),
	}
}

// Stats aggregates engine counters across shards (sums of per-shard work;
// Users from shard 0, where every user is replicated; Resources from the
// policy cache) plus per-shard summaries and the routing counters. A shard
// that does not answer shows as unhealthy, never as an error.
func (r *Router) Stats(ctx context.Context) (httpapi.StatsResponse, error) {
	per := make([]httpapi.StatsResponse, len(r.backends))
	errs := r.fanOut(ctx, allShards(len(r.backends)), func(ctx context.Context, i int, b Backend) error {
		st, err := b.Stats(ctx)
		per[i] = st
		return err
	})
	var agg reachac.Stats
	shardStats := make([]httpapi.ShardStats, len(r.backends))
	for i, st := range per {
		shardStats[i] = httpapi.ShardStats{
			Index:         i,
			Engine:        st.Engine,
			Users:         st.Users,
			Relationships: st.Relationships,
			Healthy:       errs[i] == nil,
		}
		agg.Checks += st.Checks
		agg.BatchChecks += st.BatchChecks
		agg.Audiences += st.Audiences
		agg.Mutations += st.Mutations
		agg.Batches += st.Batches
		agg.Republications += st.Republications
		agg.PublicationsShared += st.PublicationsShared
		agg.PublicationsAdvanced += st.PublicationsAdvanced
		agg.PublicationsRebuilt += st.PublicationsRebuilt
		agg.GraphRebases += st.GraphRebases
		agg.PlanCompiles += st.PlanCompiles
		agg.PlanCacheEntries += st.PlanCacheEntries
		agg.Checkpoints += st.Checkpoints
		agg.CheckpointsSkipped += st.CheckpointsSkipped
		agg.WALAppends += st.WALAppends
		agg.WALFsyncs += st.WALFsyncs
		agg.Relationships += st.Relationships
	}
	if errs[0] == nil {
		agg.Users = per[0].Users
		agg.Engine = per[0].Engine
		agg.Durable = per[0].Durable
	}
	r.pmu.RLock()
	agg.Resources = len(r.policies)
	r.pmu.RUnlock()
	r.tmu.Lock()
	agg.AuditRetained = len(r.trail)
	r.tmu.Unlock()
	rs := r.RouterStats()
	return httpapi.StatsResponse{Stats: agg, Router: &rs, ShardStats: shardStats}, nil
}

// Health reports router liveness: ok while every shard answers, degraded
// otherwise (reads may be partial, checks touching lost shards fail closed).
func (r *Router) Health(ctx context.Context) httpapi.HealthResponse {
	st, _ := r.Stats(ctx)
	resp := httpapi.HealthResponse{
		Status:        "ok",
		Role:          "router",
		Engine:        st.Engine,
		Durable:       st.Durable,
		Users:         st.Users,
		Relationships: st.Relationships,
	}
	for _, s := range st.ShardStats {
		if !s.Healthy {
			resp.Status = "degraded"
		}
	}
	return resp
}

// resolveUsers reports which of names exist, consulting the known-user set
// first and falling back to one shard resolve for the rest (any shard can
// answer: users are replicated everywhere).
func (r *Router) resolveUsers(ctx context.Context, names []string) (missing []string, err error) {
	var unknown []string
	r.kmu.RLock()
	for _, name := range names {
		if _, ok := r.known[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	r.kmu.RUnlock()
	if len(unknown) == 0 {
		return nil, nil
	}
	sort.Strings(unknown)
	unknown = dedupSorted(unknown)
	var resp reachac.ShardExpandResponse
	cerr := r.call(ctx, r.ring.Owner(unknown[0]), func(ctx context.Context, b Backend) error {
		var e error
		resp, e = b.Expand(ctx, reachac.ShardExpandRequest{
			Shards: len(r.backends), VNodes: r.cfg.VNodes, Self: r.ring.Owner(unknown[0]),
			Resolve: unknown,
		})
		return e
	})
	if cerr != nil {
		r.failedClosed.Add(1)
		return nil, fmt.Errorf("%w: resolving users: %v", ErrShardUnavailable, cerr)
	}
	miss := make(map[string]struct{}, len(resp.Missing))
	for _, m := range resp.Missing {
		miss[m] = struct{}{}
	}
	r.kmu.Lock()
	for _, name := range unknown {
		if _, bad := miss[name]; !bad {
			r.known[name] = struct{}{}
		}
	}
	r.kmu.Unlock()
	return resp.Missing, nil
}

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || s[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}
