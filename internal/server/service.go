package server

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"reachac"
	"reachac/internal/httpapi"
)

// Service is the paper's contract as an API: name-addressed mutations of the
// social graph and its access rules, and deny-by-default reachability
// questions over them. Users and resources travel by name (numeric IDs are
// local to whichever network holds them), decisions in wire form. NewHandler
// serves any Service over HTTP; *Local answers from one network,
// *shard.Router from many.
type Service interface {
	AddUser(ctx context.Context, name string, attrs map[string]any) (uint32, error)
	UserID(ctx context.Context, name string) (uint32, error)
	Relate(ctx context.Context, from, to, relType string, mutual bool) error
	Unrelate(ctx context.Context, from, to, relType string) error
	Share(ctx context.Context, resource, owner string, paths []string) (string, error)
	// Revoke reports whether the rule existed; a commit that failed is an
	// error, never removed=false (the rule is then still in force).
	Revoke(ctx context.Context, resource, rule string) (bool, error)

	Check(ctx context.Context, resource, requester string) (httpapi.Decision, error)
	CheckBatch(ctx context.Context, resource string, requesters []string) ([]httpapi.Decision, error)
	// Audience and ReachAudience list member names; partial names the shards
	// whose contribution is missing (nil from a single network), making the
	// list an under-approximation the caller must flag.
	Audience(ctx context.Context, resource string) (names []string, partial []int, err error)
	Reach(ctx context.Context, owner, requester, expr string) (bool, error)
	ReachAudience(ctx context.Context, owner, expr string) (names []string, partial []int, err error)

	// Audit returns the retained decision trail, oldest first, bounded to the
	// last n when n > 0.
	Audit(ctx context.Context, n int) ([]httpapi.Decision, error)
	Stats(ctx context.Context) (httpapi.StatsResponse, error)
	Health(ctx context.Context) httpapi.HealthResponse
}

// Local is the Service over one *reachac.Network. Reads are answered off a
// pinned View — name resolution and decision observe the same snapshot, with
// no per-request locking — behind a concurrency gate that sheds load instead
// of queueing unboundedly. Mutations resolve their names inside the
// transaction and ride the coalescer: concurrent writers are folded into
// shared Batch commit groups, so one WAL fsync covers many of them and a
// failed commit is reported to each.
type Local struct {
	net  *reachac.Network
	co   *coalescer
	gate *gate

	checkRejected atomic.Uint64
	closed        chan struct{} // closed by Shutdown after the drain
	shutdownOnce  sync.Once
	shutdownErr   error
}

// NewLocal wraps n as a Service. The service takes over the network's
// lifecycle: Shutdown (or Close) drains and closes it.
func NewLocal(n *reachac.Network, cfg Config) *Local {
	cfg = cfg.withDefaults()
	return &Local{
		net:    n,
		co:     newCoalescer(n, cfg.MaxQueuedMutations, cfg.CoalesceBatch, cfg.CoalesceWait),
		gate:   newGate(cfg.MaxConcurrentChecks, cfg.AdmitWait),
		closed: make(chan struct{}),
	}
}

// Network exposes the wrapped network (tests, stats).
func (l *Local) Network() *reachac.Network { return l.net }

// Shutdown gracefully stops the service: intake closes, every queued
// mutation commits (bounded by ctx), a final checkpoint compacts the log
// unless nothing changed since the last one, and the network closes. An HTTP
// listener in front must already be stopped (http.Server.Shutdown) so no new
// requests race the drain. Idempotent; later calls return the first result.
func (l *Local) Shutdown(ctx context.Context) error {
	l.shutdownOnce.Do(func() {
		err := l.co.shutdown(ctx)
		if l.net.Durable() {
			if cerr := l.net.Checkpoint(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if cerr := l.net.Close(); cerr != nil && err == nil {
			err = cerr
		}
		l.shutdownErr = err
		close(l.closed)
	})
	<-l.closed
	return l.shutdownErr
}

// Close is Shutdown without a deadline.
func (l *Local) Close() error { return l.Shutdown(context.Background()) }

// pin admits one read and pins the snapshot it will observe; unpin undoes
// both. A saturated gate answers ErrOverloaded.
func (l *Local) pin(ctx context.Context) (*reachac.View, error) {
	if !l.gate.acquire(ctx) {
		l.checkRejected.Add(1)
		return nil, errSaturated
	}
	v, err := l.net.View()
	if err != nil {
		l.gate.release()
		return nil, err
	}
	return v, nil
}

func (l *Local) unpin(v *reachac.View) {
	v.Close()
	l.gate.release()
}

// resolver is a View (reads) or a Tx (mutations: the ID is then consistent
// with everything the commit group applied before this op, so a user added
// earlier in the same group resolves).
type resolver interface {
	UserID(string) (reachac.UserID, bool)
}

func userID(in resolver, name string) (reachac.UserID, error) {
	id, ok := in.UserID(name)
	if !ok {
		return 0, fmt.Errorf("user %q: %w", name, reachac.ErrUnknownUser)
	}
	return id, nil
}

// userIDs resolves both ends of a relationship or a reachability question.
func userIDs(in resolver, from, to string) (f, t reachac.UserID, err error) {
	if f, err = userID(in, from); err == nil {
		t, err = userID(in, to)
	}
	return f, t, err
}

func wireDecision(v *reachac.View, d reachac.Decision) httpapi.Decision {
	req, _ := v.UserName(d.Requester)
	if req == "" {
		req = strconv.FormatUint(uint64(d.Requester), 10)
	}
	return httpapi.Decision{
		Resource:  string(d.Resource),
		Requester: req,
		Effect:    d.Effect.String(),
		Rule:      d.RuleID,
		Reason:    d.Reason,
	}
}

func wireDecisions(v *reachac.View, ds []reachac.Decision) []httpapi.Decision {
	out := make([]httpapi.Decision, len(ds))
	for i, d := range ds {
		out[i] = wireDecision(v, d)
	}
	return out
}

func userNames(v *reachac.View, ids []reachac.UserID) []string {
	names := make([]string, 0, len(ids))
	for _, id := range ids {
		if name, ok := v.UserName(id); ok {
			names = append(names, name)
		}
	}
	return names
}

// attrsFromWire converts JSON-decoded attribute values (and the ints an
// in-process caller may pass) to the attribute kinds the graph supports.
func attrsFromWire(m map[string]any) ([]reachac.Attr, error) {
	attrs := make([]reachac.Attr, 0, len(m))
	for k, val := range m {
		switch t := val.(type) {
		case string:
			attrs = append(attrs, reachac.StringAttr(k, t))
		case bool:
			attrs = append(attrs, reachac.BoolAttr(k, t))
		case float64:
			attrs = append(attrs, reachac.NumberAttr(k, t))
		case int:
			attrs = append(attrs, reachac.NumberAttr(k, float64(t)))
		default:
			return nil, fmt.Errorf("%w: attribute %q: unsupported type %T (want string, number or bool)", httpapi.ErrBadRequest, k, val)
		}
	}
	return attrs, nil
}

// --- mutations ---

func (l *Local) AddUser(ctx context.Context, name string, attrs map[string]any) (uint32, error) {
	as, err := attrsFromWire(attrs)
	if err != nil {
		return 0, err
	}
	var id reachac.UserID
	err = l.co.enqueue(ctx, func(tx *reachac.Tx) error {
		var e error
		id, e = tx.AddUser(name, as...)
		return e
	})
	return uint32(id), err
}

func (l *Local) Relate(ctx context.Context, from, to, relType string, mutual bool) error {
	return l.co.enqueue(ctx, func(tx *reachac.Tx) error {
		f, t, err := userIDs(tx, from, to)
		if err != nil {
			return err
		}
		if err := tx.Relate(f, t, relType); err != nil || !mutual {
			return err
		}
		return tx.Relate(t, f, relType)
	})
}

func (l *Local) Unrelate(ctx context.Context, from, to, relType string) error {
	return l.co.enqueue(ctx, func(tx *reachac.Tx) error {
		f, t, err := userIDs(tx, from, to)
		if err != nil {
			return err
		}
		return tx.Unrelate(f, t, relType)
	})
}

func (l *Local) Share(ctx context.Context, resource, owner string, paths []string) (string, error) {
	var rule string
	err := l.co.enqueue(ctx, func(tx *reachac.Tx) error {
		o, err := userID(tx, owner)
		if err != nil {
			return err
		}
		rule, err = tx.Share(resource, o, paths...)
		return err
	})
	return rule, err
}

func (l *Local) Revoke(ctx context.Context, resource, rule string) (bool, error) {
	var removed bool
	err := l.co.enqueue(ctx, func(tx *reachac.Tx) error {
		removed = tx.Revoke(resource, rule)
		return nil
	})
	return removed && err == nil, err
}

// --- reads ---

func (l *Local) UserID(ctx context.Context, name string) (uint32, error) {
	v, err := l.pin(ctx)
	if err != nil {
		return 0, err
	}
	defer l.unpin(v)
	id, err := userID(v, name)
	return uint32(id), err
}

func (l *Local) Check(ctx context.Context, resource, requester string) (httpapi.Decision, error) {
	v, err := l.pin(ctx)
	if err != nil {
		return httpapi.Decision{}, err
	}
	defer l.unpin(v)
	id, err := userID(v, requester)
	if err != nil {
		return httpapi.Decision{}, err
	}
	d, err := v.CanAccess(resource, id)
	if err != nil {
		return httpapi.Decision{}, err
	}
	return wireDecision(v, d), nil
}

func (l *Local) CheckBatch(ctx context.Context, resource string, requesters []string) ([]httpapi.Decision, error) {
	v, err := l.pin(ctx)
	if err != nil {
		return nil, err
	}
	defer l.unpin(v)
	ids := make([]reachac.UserID, len(requesters))
	for i, name := range requesters {
		if ids[i], err = userID(v, name); err != nil {
			return nil, err
		}
	}
	ds, err := v.CanAccessAll(resource, ids)
	if err != nil {
		return nil, err
	}
	return wireDecisions(v, ds), nil
}

func (l *Local) Audience(ctx context.Context, resource string) ([]string, []int, error) {
	v, err := l.pin(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer l.unpin(v)
	ids, err := v.Audience(resource)
	if err != nil {
		return nil, nil, err
	}
	return userNames(v, ids), nil, nil
}

func (l *Local) Reach(ctx context.Context, owner, requester, expr string) (bool, error) {
	v, err := l.pin(ctx)
	if err != nil {
		return false, err
	}
	defer l.unpin(v)
	o, r, err := userIDs(v, owner, requester)
	if err != nil {
		return false, err
	}
	return v.CheckPath(o, r, expr)
}

func (l *Local) ReachAudience(ctx context.Context, owner, expr string) ([]string, []int, error) {
	v, err := l.pin(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer l.unpin(v)
	o, err := userID(v, owner)
	if err != nil {
		return nil, nil, err
	}
	ids, err := v.PathAudience(o, expr)
	if err != nil {
		return nil, nil, err
	}
	return userNames(v, ids), nil, nil
}

// Audit copies the whole retained trail, so it rides the same admission gate
// as every other read.
func (l *Local) Audit(ctx context.Context, n int) ([]httpapi.Decision, error) {
	v, err := l.pin(ctx)
	if err != nil {
		return nil, err
	}
	defer l.unpin(v)
	trail := l.net.Audit()
	if n > 0 && len(trail) > n {
		trail = trail[len(trail)-n:]
	}
	return wireDecisions(v, trail), nil
}

// Expand advances one round of a distributed reachability search over this
// network's local subgraph, on behalf of a shard router. It is a read like
// any other: same snapshot isolation, same admission gate.
func (l *Local) Expand(ctx context.Context, req reachac.ShardExpandRequest) (reachac.ShardExpandResponse, error) {
	v, err := l.pin(ctx)
	if err != nil {
		return reachac.ShardExpandResponse{}, err
	}
	defer l.unpin(v)
	resp, err := v.ShardExpand(req)
	if err != nil {
		return resp, fmt.Errorf("%w: %v", httpapi.ErrBadRequest, err)
	}
	return resp, nil
}

// Policies dumps the policy store keyed by user name (the SavePolicies form
// embeds network-local IDs, useless to a router).
func (l *Local) Policies(ctx context.Context) ([]reachac.ResourcePolicy, error) {
	v, err := l.pin(ctx)
	if err != nil {
		return nil, err
	}
	defer l.unpin(v)
	return v.PolicyDump(), nil
}

func (l *Local) Stats(context.Context) (httpapi.StatsResponse, error) {
	return httpapi.StatsResponse{
		Stats: l.net.Stats(),
		Server: httpapi.ServerStats{
			CommitGroups:       l.co.groups.Load(),
			CoalescedMutations: l.co.applied.Load(),
			QueueRejected:      l.co.rejected.Load(),
			CheckRejected:      l.checkRejected.Load(),
			QueueDepth:         l.co.depth(),
		},
	}, nil
}

func (l *Local) Health(context.Context) httpapi.HealthResponse {
	st := l.net.Stats()
	resp := httpapi.HealthResponse{
		Status:        "ok",
		Role:          "standalone",
		Engine:        st.Engine,
		Durable:       st.Durable,
		Users:         st.Users,
		Relationships: st.Relationships,
	}
	if st.Durable {
		resp.Role = "leader"
		rec := l.net.Recovery()
		resp.Recovery = &httpapi.Recovery{Groups: rec.Groups, TornTail: rec.TornTail, CheckpointSeq: rec.CheckpointSeq}
	}
	if l.net.Follower() {
		rs := l.net.ReplicaStatus()
		resp.Role = "follower"
		resp.Replica = &httpapi.Replica{
			Epoch:       rs.Epoch,
			Connected:   rs.Connected,
			Halted:      rs.Halted,
			AppliedSeq:  rs.AppliedSeq,
			AppliedOff:  rs.AppliedOff,
			LagBytes:    rs.LagBytes(),
			StalenessMS: time.Since(rs.LastContact).Milliseconds(),
		}
	}
	return resp
}
