package server_test

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"reachac"
	"reachac/client"
	"reachac/internal/httpapi"
	"reachac/internal/server"
)

// TestFollowerServing runs a leader and a follower as full serving stacks:
// the follower advertises its role and staleness, serves replicated reads,
// and turns every mutation away with the read-only protocol error.
func TestFollowerServing(t *testing.T) {
	leader := newHarness(t, server.Config{})
	ctx := context.Background()

	if _, err := leader.c.AddUser(ctx, "alice", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.c.AddUser(ctx, "bob", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.c.Share(ctx, "photo", "alice", "friend+[1,2]"); err != nil {
		t.Fatal(err)
	}

	// The follower attaches to the leader's public URL: the replication
	// endpoints ride on the same mux as the serving API.
	follower := newHarness(t, server.Config{}, reachac.WithFollow(leader.ts.URL))

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := follower.c.UserID(ctx, "bob"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never replicated user bob")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Roles in health.
	lh, err := leader.c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lh.Role != "leader" || lh.Replica != nil {
		t.Fatalf("leader health role %q, replica %+v", lh.Role, lh.Replica)
	}
	fh, err := follower.c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fh.Role != "follower" {
		t.Fatalf("follower health role %q", fh.Role)
	}
	if fh.Replica == nil || fh.Replica.Epoch == 0 {
		t.Fatalf("follower health replica block %+v", fh.Replica)
	}

	// Every follower response carries the staleness bound, and the typed
	// client surfaces it.
	resp, err := http.Get(follower.ts.URL + httpapi.PathStats)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(httpapi.HeaderStaleness) == "" {
		t.Fatal("follower response missing the staleness header")
	}
	if _, ok := follower.c.Staleness(); !ok {
		t.Fatal("client saw a follower answer but reports no staleness bound")
	}
	if _, ok := leader.c.Staleness(); ok {
		t.Fatal("leader answers must not carry a staleness bound")
	}

	// Replicated reads decide like the leader's.
	ld, err := leader.c.Check(ctx, "photo", "bob")
	if err != nil {
		t.Fatal(err)
	}
	fd, err := follower.c.Check(ctx, "photo", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if fd.Effect != ld.Effect {
		t.Fatalf("follower decided %q, leader %q", fd.Effect, ld.Effect)
	}

	// Mutations are rejected with the read-only protocol error.
	if _, err := follower.c.AddUser(ctx, "mallory", nil); !errors.Is(err, reachac.ErrReadOnly) {
		t.Fatalf("AddUser on follower: %v, want ErrReadOnly", err)
	}
	if _, err := follower.c.Share(ctx, "doc", "alice", "friend+[1,1]"); !errors.Is(err, reachac.ErrReadOnly) {
		t.Fatalf("Share on follower: %v, want ErrReadOnly", err)
	}
	var apiErr *client.Error
	if _, err := follower.c.AddUser(ctx, "eve", nil); !errors.As(err, &apiErr) ||
		apiErr.Code != httpapi.CodeReadOnly {
		t.Fatalf("follower mutation error %v does not carry code %q", err, httpapi.CodeReadOnly)
	}

	// Stats surface the replication gauges over the wire.
	fst, err := follower.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !fst.Follower || fst.ReplicaEpoch == 0 {
		t.Fatalf("follower stats over the wire: %+v", fst)
	}
}
