package shard_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"reachac"
	"reachac/internal/httpapi"
	"reachac/internal/shard"
)

// flakyBackend wraps an embedded shard and, when down, refuses every call
// with a transport-style error — the shape of a crashed or partitioned
// acserverd the router must classify as ErrShardUnavailable. Because it is
// not a *shard.Embedded the router also takes its remote (non-local) call
// path: scatter semaphore and per-shard deadlines.
type flakyBackend struct {
	inner *shard.Embedded
	down  atomic.Bool
}

var errDown = errors.New("dial tcp: connection refused")

func (f *flakyBackend) AddUser(ctx context.Context, name string, attrs map[string]any) (uint32, error) {
	if f.down.Load() {
		return 0, errDown
	}
	return f.inner.AddUser(ctx, name, attrs)
}

func (f *flakyBackend) UserID(ctx context.Context, name string) (uint32, error) {
	if f.down.Load() {
		return 0, errDown
	}
	return f.inner.UserID(ctx, name)
}

func (f *flakyBackend) Relate(ctx context.Context, from, to, relType string, mutual bool) error {
	if f.down.Load() {
		return errDown
	}
	return f.inner.Relate(ctx, from, to, relType, mutual)
}

func (f *flakyBackend) Unrelate(ctx context.Context, from, to, relType string) error {
	if f.down.Load() {
		return errDown
	}
	return f.inner.Unrelate(ctx, from, to, relType)
}

func (f *flakyBackend) Share(ctx context.Context, resource, owner string, paths []string) (string, error) {
	if f.down.Load() {
		return "", errDown
	}
	return f.inner.Share(ctx, resource, owner, paths)
}

func (f *flakyBackend) Revoke(ctx context.Context, resource, rule string) (bool, error) {
	if f.down.Load() {
		return false, errDown
	}
	return f.inner.Revoke(ctx, resource, rule)
}

func (f *flakyBackend) Check(ctx context.Context, resource, requester string) (httpapi.Decision, error) {
	if f.down.Load() {
		return httpapi.Decision{}, errDown
	}
	return f.inner.Check(ctx, resource, requester)
}

func (f *flakyBackend) CheckBatch(ctx context.Context, resource string, requesters []string) ([]httpapi.Decision, error) {
	if f.down.Load() {
		return nil, errDown
	}
	return f.inner.CheckBatch(ctx, resource, requesters)
}

func (f *flakyBackend) Audience(ctx context.Context, resource string) ([]string, []int, error) {
	if f.down.Load() {
		return nil, nil, errDown
	}
	return f.inner.Audience(ctx, resource)
}

func (f *flakyBackend) Expand(ctx context.Context, req reachac.ShardExpandRequest) (reachac.ShardExpandResponse, error) {
	if f.down.Load() {
		return reachac.ShardExpandResponse{}, errDown
	}
	return f.inner.Expand(ctx, req)
}

func (f *flakyBackend) Policies(ctx context.Context) ([]reachac.ResourcePolicy, error) {
	if f.down.Load() {
		return nil, errDown
	}
	return f.inner.Policies(ctx)
}

func (f *flakyBackend) Stats(ctx context.Context) (httpapi.StatsResponse, error) {
	if f.down.Load() {
		return httpapi.StatsResponse{}, errDown
	}
	return f.inner.Stats(ctx)
}

func (f *flakyBackend) Close() error { return f.inner.Close() }

// newFlakyRouter builds a router over n flaky shards pre-populated with
// users u00..u19 and nothing else.
func newFlakyRouter(t *testing.T, n int, cfg shard.Config) (*shard.Router, []*flakyBackend, []string) {
	t.Helper()
	ctx := context.Background()
	flaky := make([]*flakyBackend, n)
	backends := make([]shard.Backend, n)
	for i := range backends {
		flaky[i] = &flakyBackend{inner: shard.NewEmbedded(reachac.New())}
		backends[i] = flaky[i]
	}
	r, err := shard.New(ctx, backends, cfg)
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	var users []string
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("u%02d", i)
		users = append(users, name)
		if _, err := r.AddUser(ctx, name, nil); err != nil {
			t.Fatalf("AddUser(%s): %v", name, err)
		}
	}
	return r, flaky, users
}

// chain relates users[0]→users[1]→… with label.
func chain(t *testing.T, r *shard.Router, label string, users ...string) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i+1 < len(users); i++ {
		if err := r.Relate(ctx, users[i], users[i+1], label, false); err != nil {
			t.Fatalf("Relate(%s→%s): %v", users[i], users[i+1], err)
		}
	}
}

func TestFailClosedCheckAndPartialAudience(t *testing.T) {
	ctx := context.Background()
	r, flaky, users := newFlakyRouter(t, 2, shard.Config{})
	chain(t, r, "friend", users[0], users[1], users[2], users[3])
	if _, err := r.Share(ctx, "doc", users[0], []string{"friend+[1,3]"}); err != nil {
		t.Fatalf("Share: %v", err)
	}

	// Healthy baseline: the deep path scatters and reaches the whole chain.
	d, err := r.Check(ctx, "doc", users[3])
	if err != nil || d.Effect != "allow" {
		t.Fatalf("healthy check: effect=%q err=%v, want allow", d.Effect, err)
	}
	names, partial, err := r.Audience(ctx, "doc")
	if err != nil || len(partial) > 0 {
		t.Fatalf("healthy audience: partial=%v err=%v", partial, err)
	}
	if want := []string{users[1], users[2], users[3]}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("healthy audience = %v, want %v", names, want)
	}

	// Kill the shard owning the resource owner: the very first scatter round
	// needs it, so checks must fail CLOSED and audiences degrade to partial —
	// the same check that was just answered is not answered from memory.
	down := r.Owner(users[0])
	flaky[down].down.Store(true)

	if _, err := r.Check(ctx, "doc", users[3]); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("check with shard %d down: err=%v, want ErrShardUnavailable", down, err)
	}
	names, partial, err = r.Audience(ctx, "doc")
	if err != nil {
		t.Fatalf("audience with shard down must degrade, not fail: %v", err)
	}
	if len(partial) != 1 || partial[0] != down {
		t.Fatalf("partial = %v, want [%d]", partial, down)
	}
	if len(names) != 0 {
		t.Fatalf("audience rooted on a dead shard = %v, want empty under-approximation", names)
	}

	if h := r.Health(ctx); h.Status != "degraded" {
		t.Fatalf("health with a dead shard = %q, want degraded", h.Status)
	}
	rs := r.RouterStats()
	if rs.FailedClosed == 0 || rs.Partial == 0 {
		t.Fatalf("counters: failed_closed=%d partial=%d, want both > 0", rs.FailedClosed, rs.Partial)
	}

	// Recovery: the shard comes back and the same queries heal.
	flaky[down].down.Store(false)
	if d, err := r.Check(ctx, "doc", users[3]); err != nil || d.Effect != "allow" {
		t.Fatalf("recovered check: effect=%q err=%v", d.Effect, err)
	}
}

func TestReachFailsClosedOnIncompleteNegative(t *testing.T) {
	ctx := context.Background()
	r, flaky, users := newFlakyRouter(t, 2, shard.Config{})
	chain(t, r, "friend", users[0], users[1], users[2])

	ok, err := r.Reach(ctx, users[0], users[2], "friend+[1,2]")
	if err != nil || !ok {
		t.Fatalf("healthy reach: ok=%v err=%v", ok, err)
	}

	flaky[r.Owner(users[0])].down.Store(true)
	if _, err := r.Reach(ctx, users[0], users[2], "friend+[1,2]"); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("reach with owner shard down: err=%v, want ErrShardUnavailable (incomplete negative)", err)
	}
}

func TestAddUserHealsPartialWrite(t *testing.T) {
	ctx := context.Background()
	backends := []shard.Backend{
		shard.NewEmbedded(reachac.New()),
		shard.NewEmbedded(reachac.New()),
	}
	r, err := shard.New(ctx, backends, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// A prior crashed AddUser left "alice" on her owner shard only; the
	// router must treat re-adding as healing, not a duplicate.
	owner := r.Owner("alice")
	if _, err := backends[owner].AddUser(ctx, "alice", nil); err != nil {
		t.Fatalf("seeding partial write: %v", err)
	}
	if _, err := r.AddUser(ctx, "alice", nil); err != nil {
		t.Fatalf("healing AddUser: %v", err)
	}
	// Now present everywhere: a second add is a true duplicate.
	if _, err := r.AddUser(ctx, "alice", nil); !errors.Is(err, reachac.ErrDuplicateUser) {
		t.Fatalf("AddUser after heal: err=%v, want ErrDuplicateUser", err)
	}
	if _, err := r.UserID(ctx, "alice"); err != nil {
		t.Fatalf("UserID after heal: %v", err)
	}
}

// boundaryPair finds two users the ring places on different shards.
func boundaryPair(r *shard.Router, users []string) (string, string, bool) {
	for _, a := range users {
		for _, b := range users {
			if a != b && r.Owner(a) != r.Owner(b) {
				return a, b, true
			}
		}
	}
	return "", "", false
}

func TestRelateHealsAndRejectsDuplicates(t *testing.T) {
	ctx := context.Background()
	backends := []shard.Backend{
		shard.NewEmbedded(reachac.New()),
		shard.NewEmbedded(reachac.New()),
	}
	r, err := shard.New(ctx, backends, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var users []string
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("m%d", i)
		users = append(users, name)
		if _, err := r.AddUser(ctx, name, nil); err != nil {
			t.Fatal(err)
		}
	}
	from, to, ok := boundaryPair(r, users)
	if !ok {
		t.Fatal("no boundary pair among 8 users on 2 shards")
	}

	// Seed half the boundary write directly on from's shard, as a crash
	// between the two legs would: the router's Relate must complete it.
	if err := backends[r.Owner(from)].Relate(ctx, from, to, "friend", false); err != nil {
		t.Fatalf("seeding half-written edge: %v", err)
	}
	if err := r.Relate(ctx, from, to, "friend", false); err != nil {
		t.Fatalf("healing Relate: %v", err)
	}
	if err := r.Relate(ctx, from, to, "friend", false); !errors.Is(err, reachac.ErrDuplicateRelationship) {
		t.Fatalf("Relate after heal: err=%v, want ErrDuplicateRelationship", err)
	}
	if err := r.Unrelate(ctx, from, to, "friend"); err != nil {
		t.Fatalf("Unrelate: %v", err)
	}
	if err := r.Unrelate(ctx, from, to, "friend"); !errors.Is(err, reachac.ErrUnknownRelationship) {
		t.Fatalf("second Unrelate: err=%v, want ErrUnknownRelationship", err)
	}
}

func TestRelateRollsBackPartialFailure(t *testing.T) {
	ctx := context.Background()
	backends := []shard.Backend{
		shard.NewEmbedded(reachac.New()),
		shard.NewEmbedded(reachac.New()),
	}
	r, err := shard.New(ctx, backends, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var users []string
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("m%d", i)
		users = append(users, name)
		if _, err := r.AddUser(ctx, name, nil); err != nil {
			t.Fatal(err)
		}
	}
	// "ghost" exists ONLY on the shard that does not own it, so the edge
	// write succeeds there and fails hard (unknown user) on ghost's owner:
	// the router must roll the applied side back and surface the error.
	var from string
	for _, u := range users {
		if r.Owner(u) != r.Owner("ghost") {
			from = u
			break
		}
	}
	if from == "" {
		t.Fatal("all users share ghost's shard")
	}
	if _, err := backends[r.Owner(from)].AddUser(ctx, "ghost", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Relate(ctx, from, "ghost", "friend", false); !errors.Is(err, reachac.ErrUnknownUser) {
		t.Fatalf("Relate to half-known user: err=%v, want ErrUnknownUser", err)
	}
	// The rollback removed the applied leg: re-applying it directly succeeds.
	if err := backends[r.Owner(from)].Relate(ctx, from, "ghost", "friend", false); err != nil {
		t.Fatalf("edge was not rolled back on from's shard: %v", err)
	}
}

func TestShareConflictAndRevoke(t *testing.T) {
	ctx := context.Background()
	r, _, users := newFlakyRouter(t, 2, shard.Config{})
	rule, err := r.Share(ctx, "doc", users[0], []string{"friend+[1,2]"})
	if err != nil {
		t.Fatalf("Share: %v", err)
	}
	// The same resource under a different owner may live on a different
	// shard, which alone cannot see the conflict — the router must.
	if _, err := r.Share(ctx, "doc", users[1], []string{"friend+[1,2]"}); !errors.Is(err, reachac.ErrResourceOwned) {
		t.Fatalf("conflicting Share: err=%v, want ErrResourceOwned", err)
	}

	chain(t, r, "friend", users[0], users[1])
	if d, err := r.Check(ctx, "doc", users[1]); err != nil || d.Effect != "allow" {
		t.Fatalf("check before revoke: effect=%q err=%v", d.Effect, err)
	}
	removed, err := r.Revoke(ctx, "doc", rule)
	if err != nil || !removed {
		t.Fatalf("Revoke: removed=%v err=%v", removed, err)
	}
	if d, err := r.Check(ctx, "doc", users[1]); err != nil || d.Effect != "deny" {
		t.Fatalf("check after revoke: effect=%q err=%v, want deny", d.Effect, err)
	}
	if removed, err := r.Revoke(ctx, "doc", rule); err != nil || removed {
		t.Fatalf("second Revoke: removed=%v err=%v, want false", removed, err)
	}
	if removed, err := r.Revoke(ctx, "nosuch", "r1"); err != nil || removed {
		t.Fatalf("Revoke of unregistered resource: removed=%v err=%v, want false, nil", removed, err)
	}
}

func TestScatterChecksLandInRouterAudit(t *testing.T) {
	ctx := context.Background()
	r, _, users := newFlakyRouter(t, 2, shard.Config{AuditLimit: 4})
	chain(t, r, "friend", users[0], users[1], users[2])
	if _, err := r.Share(ctx, "doc", users[0], []string{"friend+[1,2]"}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if _, err := r.Check(ctx, "doc", users[i]); err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
	}
	trail, _ := r.Audit(ctx, 0)
	if len(trail) != 4 {
		t.Fatalf("Audit(0) kept %d decisions, want the ring-buffer cap 4", len(trail))
	}
	// Oldest-first: the retained window is checks 3..6.
	for i, d := range trail {
		if want := users[i+3]; d.Requester != want {
			t.Fatalf("trail[%d].Requester = %q, want %q (oldest-first window)", i, d.Requester, want)
		}
	}
	if last, _ := r.Audit(ctx, 2); len(last) != 2 || last[1].Requester != users[6] {
		t.Fatalf("Audit(2) = %v, want the last two decisions", last)
	}
}

func TestUnknownRequesterOnScatterPath(t *testing.T) {
	ctx := context.Background()
	r, _, users := newFlakyRouter(t, 2, shard.Config{})
	if _, err := r.Share(ctx, "doc", users[0], []string{"friend+[1,2]"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Check(ctx, "doc", "nobody"); !errors.Is(err, reachac.ErrUnknownUser) {
		t.Fatalf("check by unknown requester: err=%v, want ErrUnknownUser", err)
	}
	if _, err := r.CheckBatch(ctx, "doc", []string{users[1], "nobody"}); !errors.Is(err, reachac.ErrUnknownUser) {
		t.Fatalf("batch with unknown requester: err=%v, want ErrUnknownUser", err)
	}
	if _, _, err := r.ReachAudience(ctx, "nobody", "friend+[1,2]"); !errors.Is(err, reachac.ErrUnknownUser) {
		t.Fatalf("reach-audience from unknown owner: err=%v, want ErrUnknownUser", err)
	}
}

// TestSecondRouterSeesEdgeRemoval: two routers over one shard set must
// answer alike. An edge one router removes is gone for the other on its very
// next check, because neither remembers an audience between requests.
func TestSecondRouterSeesEdgeRemoval(t *testing.T) {
	ctx := context.Background()
	backends := []shard.Backend{
		shard.NewEmbedded(reachac.New()),
		shard.NewEmbedded(reachac.New()),
	}
	a, err := shard.New(ctx, backends, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close() // closes the shared backends; b holds no others
	for _, u := range []string{"alice", "bob", "carol"} {
		if _, err := a.AddUser(ctx, u, nil); err != nil {
			t.Fatal(err)
		}
	}
	chain(t, a, "friend", "alice", "bob", "carol")
	if _, err := a.Share(ctx, "doc", "alice", []string{"friend+[1,2]"}); err != nil {
		t.Fatal(err)
	}
	b, err := shard.New(ctx, backends, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(r *shard.Router, who, want string) {
		t.Helper()
		if d, err := r.Check(ctx, "doc", "carol"); err != nil || d.Effect != want {
			t.Fatalf("router %s: check carol = (%q, %v), want %s", who, d.Effect, err, want)
		}
	}
	check(a, "A", "allow")
	if err := b.Unrelate(ctx, "bob", "carol", "friend"); err != nil {
		t.Fatal(err)
	}
	check(b, "B", "deny")
	check(a, "A", "deny")
}

func TestMutualEdgeAudiences(t *testing.T) {
	ctx := context.Background()
	r, _, users := newFlakyRouter(t, 2, shard.Config{})
	a, b, c := users[0], users[1], users[2]
	if _, err := r.Share(ctx, "doc", a, []string{"friend+[1,2]"}); err != nil {
		t.Fatal(err)
	}
	audience := func() []string {
		t.Helper()
		names, partial, err := r.Audience(ctx, "doc")
		if err != nil || len(partial) > 0 {
			t.Fatalf("audience: partial=%v err=%v", partial, err)
		}
		sort.Strings(names)
		return names
	}
	if got := audience(); len(got) != 0 {
		t.Fatalf("initial audience = %v, want empty", got)
	}
	// Mutual edge a<->b, then b->c: each grows the audience.
	if err := r.Relate(ctx, a, b, "friend", true); err != nil {
		t.Fatal(err)
	}
	if got := audience(); fmt.Sprint(got) != fmt.Sprint([]string{b}) {
		t.Fatalf("audience after mutual relate = %v, want [%s]", got, b)
	}
	if err := r.Relate(ctx, b, c, "friend", false); err != nil {
		t.Fatal(err)
	}
	if got := audience(); fmt.Sprint(got) != fmt.Sprint([]string{b, c}) {
		t.Fatalf("audience after extension = %v, want [%s %s]", got, b, c)
	}
	// Removing a->b severs the whole chain even though b->a survives.
	if err := r.Unrelate(ctx, a, b, "friend"); err != nil {
		t.Fatal(err)
	}
	if got := audience(); len(got) != 0 {
		t.Fatalf("audience after severing = %v, want empty", got)
	}
}

func TestStatsAggregation(t *testing.T) {
	ctx := context.Background()
	r, _, users := newFlakyRouter(t, 2, shard.Config{})
	chain(t, r, "friend", users[0], users[1])
	if _, err := r.Share(ctx, "doc", users[0], []string{"friend*[1]"}); err != nil {
		t.Fatal(err)
	}
	// friend*[1] is depth-1: the whole check delegates to the owner's shard.
	if d, err := r.Check(ctx, "doc", users[1]); err != nil || d.Effect != "allow" {
		t.Fatalf("depth-1 check: effect=%q err=%v", d.Effect, err)
	}
	st, _ := r.Stats(ctx)
	if st.Router == nil {
		t.Fatal("Stats dropped the router counters")
	}
	if st.Router.FastPath == 0 {
		t.Fatal("depth-1 check did not take the fast path")
	}
	if st.Users != 20 {
		t.Fatalf("aggregated users = %d, want 20 (replicated everywhere, counted once)", st.Users)
	}
	if st.Resources != 1 {
		t.Fatalf("aggregated resources = %d, want 1", st.Resources)
	}
	if st.PlanCompiles == 0 || st.PlanCacheEntries == 0 {
		t.Fatalf("aggregated plan counters: compiles=%d entries=%d, want the owner shard's", st.PlanCompiles, st.PlanCacheEntries)
	}
	if len(st.ShardStats) != 2 || !st.ShardStats[0].Healthy || !st.ShardStats[1].Healthy {
		t.Fatalf("shard stats = %+v, want two healthy shards", st.ShardStats)
	}
	// A local edge lands once, on its co-located owner pair; boundary edges
	// land twice. Either way the counters must have seen the write.
	if st.Router.BoundaryEdges+st.Router.LocalEdges == 0 {
		t.Fatal("edge placement counters never moved")
	}
}

// TestEmbeddedShardsConcurrentWriters: an embedded shard is the same service
// acserverd serves, so writers arriving through the router from many
// goroutines share its coalescer — every write must land exactly once.
func TestEmbeddedShardsConcurrentWriters(t *testing.T) {
	ctx := context.Background()
	r, err := shard.New(ctx, []shard.Backend{
		shard.NewEmbedded(reachac.New()),
		shard.NewEmbedded(reachac.New()),
	}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const writers, perWriter = 8, 16
	if _, err := r.AddUser(ctx, "hub", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writers*perWriter; i++ {
		if _, err := r.AddUser(ctx, fmt.Sprintf("m%03d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWriter && errs[w] == nil; j++ {
				errs[w] = r.Relate(ctx, "hub", fmt.Sprintf("m%03d", w*perWriter+j), "friend", false)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	names, partial, err := r.ReachAudience(ctx, "hub", "friend+[1]")
	if err != nil || len(partial) > 0 || len(names) != writers*perWriter {
		t.Fatalf("ReachAudience = %d members (partial %v, err %v), want %d", len(names), partial, err, writers*perWriter)
	}
	st, err := r.Stats(ctx)
	if err != nil || st.Relationships < writers*perWriter {
		t.Fatalf("Stats = %+v, %v", st.Stats, err)
	}
}
