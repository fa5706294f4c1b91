package shard_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"reachac"
	"reachac/client"
	"reachac/internal/server"
	"reachac/internal/shard"
)

// newRemoteRouter stands up n real acserverd serving stacks (durable
// Network + internal/server handler over httptest) and routes across them
// with shard.Remote backends — the same wire path acshardd -backends takes,
// minus the TCP listener daemonry.
func newRemoteRouter(t *testing.T, n int) ([]shard.Backend, *shard.Router) {
	t.Helper()
	ctx := context.Background()
	backends := make([]shard.Backend, n)
	for i := 0; i < n; i++ {
		net, err := reachac.Open(t.TempDir())
		if err != nil {
			t.Fatalf("open shard %d: %v", i, err)
		}
		srv := server.New(net, server.Config{})
		ts := httptest.NewServer(srv)
		c, err := client.New(ts.URL)
		if err != nil {
			t.Fatalf("client shard %d: %v", i, err)
		}
		backends[i] = shard.NewRemote(c)
		t.Cleanup(func() {
			ts.Close()
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(sctx)
			net.Close()
		})
	}
	router, err := shard.New(ctx, backends, shard.Config{})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	t.Cleanup(func() { router.Close() })
	return backends, router
}

// TestRemoteBackendsEndToEnd drives the full API surface through Remote
// backends: replication, boundary edges, depth-1 delegation, scatter-gather
// checks/audiences, point reachability, revocation and stats aggregation all
// cross the real HTTP wire.
func TestRemoteBackendsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spins 2 HTTP serving stacks")
	}
	ctx := context.Background()
	_, r := newRemoteRouter(t, 2)

	users := []string{"alice", "bob", "carol", "dave", "erin"}
	for i, u := range users {
		attrs := map[string]any{"level": i}
		if i%2 == 0 {
			attrs["dept"] = "eng"
		}
		if _, err := r.AddUser(ctx, u, attrs); err != nil {
			t.Fatalf("AddUser(%s): %v", u, err)
		}
	}
	if _, err := r.AddUser(ctx, "alice", nil); !errors.Is(err, reachac.ErrDuplicateUser) {
		t.Fatalf("duplicate AddUser: %v", err)
	}
	if _, err := r.UserID(ctx, "carol"); err != nil {
		t.Fatalf("UserID(carol): %v", err)
	}
	if _, err := r.UserID(ctx, "nobody"); !errors.Is(err, reachac.ErrUnknownUser) {
		t.Fatalf("UserID(nobody): %v", err)
	}

	// A 4-hop chain: with 2 shards and these names the cut is straddled
	// (alice/bob/dave on one shard, carol on the other).
	chain := [][2]string{{"alice", "bob"}, {"bob", "carol"}, {"carol", "dave"}, {"dave", "erin"}}
	for _, e := range chain {
		if err := r.Relate(ctx, e[0], e[1], "friend", false); err != nil {
			t.Fatalf("Relate(%s->%s): %v", e[0], e[1], err)
		}
	}
	if err := r.Relate(ctx, "alice", "bob", "friend", false); !errors.Is(err, reachac.ErrDuplicateRelationship) {
		t.Fatalf("duplicate Relate: %v", err)
	}

	// Deep policy: scatter-gather. Depth-1 policy: single-shard delegation.
	if _, err := r.Share(ctx, "photo", "alice", []string{"friend+[1,3]"}); err != nil {
		t.Fatalf("Share(photo): %v", err)
	}
	if _, err := r.Share(ctx, "note", "alice", []string{"friend*[1]"}); err != nil {
		t.Fatalf("Share(note): %v", err)
	}

	dec, err := r.Check(ctx, "photo", "dave")
	if err != nil || dec.Effect != "allow" {
		t.Fatalf("Check(photo,dave) = %+v, %v; want allow", dec, err)
	}
	dec, err = r.Check(ctx, "photo", "erin")
	if err != nil || dec.Effect != "deny" {
		t.Fatalf("Check(photo,erin) = %+v, %v; want deny (4 hops > 3)", dec, err)
	}
	dec, err = r.Check(ctx, "note", "bob")
	if err != nil || dec.Effect != "allow" {
		t.Fatalf("Check(note,bob) = %+v, %v; want allow via delegation", dec, err)
	}
	if _, err := r.Check(ctx, "photo", "nobody"); !errors.Is(err, reachac.ErrUnknownUser) {
		t.Fatalf("Check(photo,nobody): %v", err)
	}

	decs, err := r.CheckBatch(ctx, "photo", []string{"bob", "carol", "erin"})
	if err != nil {
		t.Fatalf("CheckBatch: %v", err)
	}
	wantEffects := []string{"allow", "allow", "deny"}
	for i, d := range decs {
		if d.Effect != wantEffects[i] {
			t.Fatalf("CheckBatch[%d] = %s, want %s", i, d.Effect, wantEffects[i])
		}
	}

	// Depth-1 "note" delegates whole batch checks and audiences to the
	// owner's shard over the wire (Remote.CheckBatch / Remote.Audience).
	ndecs, err := r.CheckBatch(ctx, "note", []string{"bob", "carol"})
	if err != nil || ndecs[0].Effect != "allow" || ndecs[1].Effect != "deny" {
		t.Fatalf("delegated CheckBatch(note) = %+v, %v", ndecs, err)
	}
	naud, npartial, err := r.Audience(ctx, "note")
	if err != nil || len(npartial) > 0 || len(naud) != 1 || naud[0] != "bob" {
		t.Fatalf("delegated Audience(note) = %v partial=%v err=%v; want [bob]", naud, npartial, err)
	}

	aud, partial, err := r.Audience(ctx, "photo")
	if err != nil || len(partial) > 0 {
		t.Fatalf("Audience(photo): %v partial=%v", err, partial)
	}
	sort.Strings(aud)
	if len(aud) != 3 || aud[0] != "bob" || aud[1] != "carol" || aud[2] != "dave" {
		t.Fatalf("Audience(photo) = %v, want [bob carol dave]", aud)
	}

	ok, err := r.Reach(ctx, "alice", "carol", "friend+[1,2]")
	if err != nil || !ok {
		t.Fatalf("Reach(alice,carol) = %v, %v; want true", ok, err)
	}
	ok, err = r.Reach(ctx, "alice", "erin", "friend+[1,2]")
	if err != nil || ok {
		t.Fatalf("Reach(alice,erin) = %v, %v; want false", ok, err)
	}
	raud, partial, err := r.ReachAudience(ctx, "alice", "friend+[1,2]")
	if err != nil || len(partial) > 0 {
		t.Fatalf("ReachAudience: %v partial=%v", err, partial)
	}
	sort.Strings(raud)
	if len(raud) != 2 || raud[0] != "bob" || raud[1] != "carol" {
		t.Fatalf("ReachAudience = %v, want [bob carol]", raud)
	}

	// Revoke the deep rule and confirm the decision flips over the wire.
	shareID, err := r.Share(ctx, "photo2", "alice", []string{"friend+[1,3]"})
	if err != nil {
		t.Fatalf("Share(photo2): %v", err)
	}
	if dec, err := r.Check(ctx, "photo2", "dave"); err != nil || dec.Effect != "allow" {
		t.Fatalf("Check(photo2,dave) pre-revoke = %+v, %v", dec, err)
	}
	removed, err := r.Revoke(ctx, "photo2", shareID)
	if err != nil || !removed {
		t.Fatalf("Revoke(photo2) = %v, %v", removed, err)
	}
	if dec, err := r.Check(ctx, "photo2", "dave"); err != nil || dec.Effect != "deny" {
		t.Fatalf("Check(photo2,dave) post-revoke = %+v, %v", dec, err)
	}

	// Unrelate a boundary edge: both owner shards must drop their copy, and
	// the maintained audience must shrink.
	if err := r.Unrelate(ctx, "bob", "carol", "friend"); err != nil {
		t.Fatalf("Unrelate(bob->carol): %v", err)
	}
	aud, partial, err = r.Audience(ctx, "photo")
	if err != nil || len(partial) > 0 {
		t.Fatalf("Audience(photo) after cut: %v partial=%v", err, partial)
	}
	if len(aud) != 1 || aud[0] != "bob" {
		t.Fatalf("Audience(photo) after cut = %v, want [bob]", aud)
	}

	stats, _ := r.Stats(ctx)
	if stats.Users != len(users) {
		t.Fatalf("Stats.Users = %d, want %d", stats.Users, len(users))
	}
	if len(stats.ShardStats) != 2 || !stats.ShardStats[0].Healthy || !stats.ShardStats[1].Healthy {
		t.Fatalf("ShardStats = %+v, want two healthy shards", stats.ShardStats)
	}
	health := r.Health(ctx)
	if health.Status != "ok" {
		t.Fatalf("Health = %+v, want ok", health)
	}
}

// TestRemoteRouterRestartRebuildsRoutingState: a fresh router attached to
// already-populated remote shards must rebuild its policy and user caches
// from the shards (ShardPolicies + stats) and answer immediately.
func TestRemoteRouterRestartRebuildsRoutingState(t *testing.T) {
	if testing.Short() {
		t.Skip("spins 2 HTTP serving stacks")
	}
	ctx := context.Background()

	backends, first := newRemoteRouter(t, 2)
	for _, u := range []string{"alice", "bob", "carol"} {
		if _, err := first.AddUser(ctx, u, nil); err != nil {
			t.Fatalf("AddUser(%s): %v", u, err)
		}
	}
	if err := first.Relate(ctx, "alice", "bob", "friend", false); err != nil {
		t.Fatalf("Relate: %v", err)
	}
	if err := first.Relate(ctx, "bob", "carol", "friend", false); err != nil {
		t.Fatalf("Relate: %v", err)
	}
	if _, err := first.Share(ctx, "doc", "alice", []string{"friend+[1,2]"}); err != nil {
		t.Fatalf("Share: %v", err)
	}

	second, err := shard.New(ctx, backends, shard.Config{})
	if err != nil {
		t.Fatalf("second router: %v", err)
	}
	defer second.Close()
	dec, err := second.Check(ctx, "doc", "carol")
	if err != nil || dec.Effect != "allow" {
		t.Fatalf("restarted router Check(doc,carol) = %+v, %v; want allow", dec, err)
	}
	aud, partial, err := second.Audience(ctx, "doc")
	if err != nil || len(partial) > 0 {
		t.Fatalf("restarted router Audience: %v partial=%v", err, partial)
	}
	sort.Strings(aud)
	if len(aud) != 2 || aud[0] != "bob" || aud[1] != "carol" {
		t.Fatalf("restarted router Audience = %v, want [bob carol]", aud)
	}
}
