package server_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"reachac"
	"reachac/client"
	"reachac/internal/server"
)

// harness is one running serving stack over a durable directory.
type harness struct {
	dir string
	net *reachac.Network
	srv *server.Server
	ts  *httptest.Server
	c   *client.Client
}

func newHarness(t *testing.T, kind reachac.EngineKind, cfg server.Config, opts ...reachac.Option) *harness {
	t.Helper()
	dir := t.TempDir()
	n, err := reachac.Open(dir, append([]reachac.Option{reachac.WithEngine(kind)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(n, cfg)
	ts := httptest.NewServer(srv)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{dir: dir, net: n, srv: srv, ts: ts, c: c}
	t.Cleanup(func() {
		h.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := h.srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return h
}

// TestServerEndpointsAllEngines drives the endpoints whose answers an engine
// computes, and the ones only a single node serves (policies, engine name,
// commit-group counters), end to end — through the real HTTP stack and the
// typed client — across every engine kind. What does not depend on the engine
// (validation, the error rows) is TestWireConformance's.
func TestServerEndpointsAllEngines(t *testing.T) {
	for _, kind := range reachac.EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			h := newHarness(t, kind, server.Config{})
			ctx := context.Background()
			c := h.c

			// Users.
			if _, err := c.AddUser(ctx, "alice", nil); err != nil {
				t.Fatal(err)
			}
			bobID, err := c.AddUser(ctx, "bob", map[string]any{"age": 24, "admin": true, "city": "basel"})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"carol", "dave"} {
				if _, err := c.AddUser(ctx, name, nil); err != nil {
					t.Fatal(err)
				}
			}
			if id, err := c.UserID(ctx, "bob"); err != nil || id != bobID {
				t.Fatalf("UserID(bob) = %d, %v (want %d)", id, err, bobID)
			}

			// Relationships.
			if err := c.Relate(ctx, "alice", "bob", "friend"); err != nil {
				t.Fatal(err)
			}
			if err := c.RelateMutual(ctx, "bob", "carol", "friend"); err != nil {
				t.Fatal(err)
			}

			// Share / check / audience.
			rule, err := c.Share(ctx, "photo", "alice", "friend+[1,2]")
			if err != nil || rule == "" {
				t.Fatalf("Share = %q, %v", rule, err)
			}
			d, err := c.Check(ctx, "photo", "bob")
			if err != nil || d.Effect != "allow" {
				t.Fatalf("Check(photo, bob) = %+v, %v", d, err)
			}
			if d.Requester != "bob" || d.Rule != rule {
				t.Fatalf("decision wire form: %+v", d)
			}
			if d, err = c.Check(ctx, "photo", "dave"); err != nil || d.Effect != "deny" {
				t.Fatalf("Check(photo, dave) = %+v, %v", d, err)
			}

			ds, err := c.CheckBatch(ctx, "photo", []string{"bob", "carol", "dave"})
			if err != nil || len(ds) != 3 {
				t.Fatalf("CheckBatch = %v, %v", ds, err)
			}
			for i, want := range []string{"allow", "allow", "deny"} {
				if ds[i].Effect != want {
					t.Fatalf("CheckBatch[%d] = %+v, want %s", i, ds[i], want)
				}
			}

			aud, err := c.Audience(ctx, "photo")
			if err != nil || len(aud) != 2 || aud[0] != "bob" || aud[1] != "carol" {
				t.Fatalf("Audience = %v, %v", aud, err)
			}

			// Raw reachability.
			if ok, err := c.Reach(ctx, "alice", "carol", "friend+[1,2]"); err != nil || !ok {
				t.Fatalf("Reach(alice, carol) = %v, %v", ok, err)
			}
			if ok, err := c.Reach(ctx, "alice", "dave", "friend+[1,2]"); err != nil || ok {
				t.Fatalf("Reach(alice, dave) = %v, %v", ok, err)
			}
			ra, err := c.ReachAudience(ctx, "alice", "friend+[1,2]")
			if err != nil || len(ra) != 2 {
				t.Fatalf("ReachAudience = %v, %v", ra, err)
			}

			// Revoke.
			if removed, err := c.Revoke(ctx, "photo", rule); err != nil || !removed {
				t.Fatalf("Revoke = %v, %v", removed, err)
			}
			if d, err = c.Check(ctx, "photo", "bob"); err != nil || d.Effect != "deny" {
				t.Fatalf("Check after revoke = %+v, %v", d, err)
			}

			// Policies round-trip.
			if _, err := c.Share(ctx, "photo", "alice", "friend+[1]"); err != nil {
				t.Fatal(err)
			}
			pol, err := c.Policies(ctx)
			if err != nil || len(pol) == 0 {
				t.Fatalf("Policies = %d bytes, %v", len(pol), err)
			}
			if err := c.SetPolicies(ctx, pol); err != nil {
				t.Fatalf("SetPolicies: %v", err)
			}
			if d, err = c.Check(ctx, "photo", "bob"); err != nil || d.Effect != "allow" {
				t.Fatalf("Check after policy round-trip = %+v, %v", d, err)
			}

			// Audit tail.
			trail, err := c.Audit(ctx, 5)
			if err != nil || len(trail) == 0 || len(trail) > 5 {
				t.Fatalf("Audit = %d decisions, %v", len(trail), err)
			}

			// Health and stats.
			hl, err := c.Health(ctx)
			if err != nil || hl.Status != "ok" || !hl.Durable || hl.Users != 4 {
				t.Fatalf("Health = %+v, %v", hl, err)
			}
			if hl.Engine != kind.String() {
				t.Fatalf("Health.Engine = %q, want %q", hl.Engine, kind)
			}
			st, err := c.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.Checks == 0 || st.Mutations == 0 || st.Batches == 0 || !st.Durable {
				t.Fatalf("Stats = %+v", st)
			}
			if st.PlanCompiles == 0 || st.PlanCacheEntries == 0 {
				t.Fatalf("plan counters did not cross the wire: compiles=%d entries=%d", st.PlanCompiles, st.PlanCacheEntries)
			}
			if st.Server.CommitGroups == 0 || st.Server.CoalescedMutations == 0 {
				t.Fatalf("Server stats = %+v", st.Server)
			}
		})
	}
}

// TestServerCoalescesConcurrentWriters is the group-commit acceptance test:
// many concurrent writers must need fewer WAL fsyncs than mutations.
func TestServerCoalescesConcurrentWriters(t *testing.T) {
	h := newHarness(t, reachac.Online, server.Config{
		CoalesceWait:  2 * time.Millisecond,
		CoalesceBatch: 64,
	}, reachac.WithSync(reachac.SyncAlways))
	ctx := context.Background()

	const writers, perWriter = 16, 8
	const mutations = writers * perWriter
	for i := 0; i < 2*mutations; i++ {
		if _, err := h.c.AddUser(ctx, fmt.Sprintf("u%04d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	before := h.net.Stats()

	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				k := w*perWriter + j
				from, to := fmt.Sprintf("u%04d", 2*k), fmt.Sprintf("u%04d", 2*k+1)
				if err := h.c.Relate(ctx, from, to, "friend"); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	after := h.net.Stats()
	gotMut := after.Mutations - before.Mutations
	gotFsync := after.WALFsyncs - before.WALFsyncs
	if gotMut != mutations {
		t.Fatalf("mutations counted = %d, want %d", gotMut, mutations)
	}
	if gotFsync >= mutations {
		t.Fatalf("write coalescing ineffective: %d fsyncs for %d mutations", gotFsync, mutations)
	}
	t.Logf("%d mutations in %d fsyncs (%.1fx coalescing)", gotMut, gotFsync, float64(gotMut)/float64(gotFsync))

	st, err := h.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.CommitGroups == 0 || st.Server.CoalescedMutations < mutations {
		t.Fatalf("server coalescing stats = %+v", st.Server)
	}
}

// TestServerGracefulShutdownDrains stops the server mid-traffic and proves
// every acknowledged mutation survives into a clean reopen.
func TestServerGracefulShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	n, err := reachac.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(n, server.Config{CoalesceWait: time.Millisecond})
	ts := httptest.NewServer(srv)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const writers = 8
	for i := 0; i < 2*writers*64; i++ {
		if _, err := c.AddUser(ctx, fmt.Sprintf("u%04d", i), nil); err != nil {
			t.Fatal(err)
		}
	}

	var (
		mu    sync.Mutex
		acked [][2]string
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 64; j++ {
				k := w*64 + j
				from, to := fmt.Sprintf("u%04d", 2*k), fmt.Sprintf("u%04d", 2*k+1)
				if err := c.Relate(ctx, from, to, "friend"); err != nil {
					return // shutdown raced the request: unacknowledged
				}
				mu.Lock()
				acked = append(acked, [2]string{from, to})
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	ts.Close() // stops the listener, waits for in-flight handlers
	wg.Wait()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if len(acked) == 0 {
		t.Fatal("no mutation was acknowledged before shutdown")
	}

	n2, err := reachac.Open(dir)
	if err != nil {
		t.Fatalf("reopen after graceful shutdown: %v", err)
	}
	defer n2.Close()
	if n2.Recovery().TornTail {
		t.Fatal("graceful shutdown left a torn WAL tail")
	}
	for _, pair := range acked {
		ok, err := n2.CheckPath(mustID(t, n2, pair[0]), mustID(t, n2, pair[1]), "friend+[1]")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("acknowledged relationship %s -> %s lost across shutdown", pair[0], pair[1])
		}
	}
	t.Logf("%d acknowledged mutations all recovered", len(acked))
}

func mustID(t *testing.T, n *reachac.Network, name string) reachac.UserID {
	t.Helper()
	id, ok := n.UserID(name)
	if !ok {
		t.Fatalf("user %q missing after recovery", name)
	}
	return id
}

// discardResponse is a zero-retention ResponseWriter so the benchmark
// measures the serving path, not response buffering.
type discardResponse struct {
	h    http.Header
	code int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }

// checkServer serves "photo", owned by alice under friend+[1,3], over a
// friend chain alice → u0000 → … → u0199.
func checkServer(tb testing.TB) *server.Server {
	n := reachac.New()
	alice := n.MustAddUser("alice")
	prev := alice
	for i := 0; i < 200; i++ {
		u := n.MustAddUser(fmt.Sprintf("u%04d", i))
		if err := n.Relate(prev, u, "friend"); err != nil {
			tb.Fatal(err)
		}
		prev = u
	}
	if _, err := n.Share("photo", alice, "friend+[1,3]"); err != nil {
		tb.Fatal(err)
	}
	srv := server.New(n, server.Config{MaxConcurrentChecks: 1 << 20})
	tb.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv
}

// BenchmarkServerCheckParallel measures check throughput through the full
// handler stack off the shared snapshot; it should scale with GOMAXPROCS
// (given more than one core): checks pin the published snapshot with two
// atomic ops and share no locks.
func BenchmarkServerCheckParallel(b *testing.B) {
	srv := checkServer(b)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		req := httptest.NewRequest(http.MethodGet, "/v1/check?resource=photo&requester=u0002", nil)
		w := &discardResponse{h: make(http.Header)}
		for pb.Next() {
			w.code = 0
			srv.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Fatalf("HTTP %d", w.code)
			}
		}
	})
}
