package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"reachac"
	"reachac/internal/httpapi"
	"reachac/internal/server"
	"reachac/internal/shard"
)

// newTestServer mounts a router over n flaky shards behind the HTTP handler.
func newTestServer(t *testing.T, n int) (*httptest.Server, *shard.Router, []*flakyBackend) {
	t.Helper()
	flaky := make([]*flakyBackend, n)
	backends := make([]shard.Backend, n)
	for i := range backends {
		flaky[i] = &flakyBackend{inner: shard.NewEmbedded(reachac.New())}
		backends[i] = flaky[i]
	}
	r, err := shard.New(context.Background(), backends, shard.Config{})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	srv := httptest.NewServer(server.NewHandler(r))
	t.Cleanup(func() { srv.Close(); r.Close() })
	return srv, r, flaky
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func wantStatus(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, want)
	}
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %s response: %v", resp.Request.URL.Path, err)
	}
	return v
}

func TestHandlerShardOutage(t *testing.T) {
	srv, r, flaky := newTestServer(t, 2)
	base := srv.URL
	ctx := context.Background()

	users := make([]string, 6)
	for i := range users {
		users[i] = fmt.Sprintf("w%d", i)
		if _, err := r.AddUser(ctx, users[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	chain(t, r, "friend", users[0], users[1], users[2], users[3])
	if _, err := r.Share(ctx, "doc", users[0], []string{"friend+[1,3]"}); err != nil {
		t.Fatal(err)
	}

	down := r.Owner(users[0])
	flaky[down].down.Store(true)

	// Checks through the dead shard fail closed: 503 + shard-unavailable.
	resp, err := http.Get(base + httpapi.PathCheck + "?resource=doc&requester=" + users[3])
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusServiceUnavailable)
	if body := decodeJSON[httpapi.ErrorBody](t, resp); body.Code != httpapi.CodeShardUnavailable {
		t.Fatalf("failed-closed check code = %q, want %q", body.Code, httpapi.CodeShardUnavailable)
	}

	// Audiences degrade: 200 with the failed shard named in X-Shard-Partial.
	resp, err = http.Get(base + httpapi.PathAudience + "?resource=doc")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	if h := resp.Header.Get(httpapi.HeaderShardPartial); h != strconv.Itoa(down) {
		t.Fatalf("X-Shard-Partial = %q, want %q", h, strconv.Itoa(down))
	}
	resp.Body.Close()

	resp, err = http.Get(base + httpapi.PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	if h := decodeJSON[httpapi.HealthResponse](t, resp); h.Status != "degraded" {
		t.Fatalf("health during outage = %q, want degraded", h.Status)
	}
}

// TestHandlerUnrelateAndDelegatedBatch covers the DELETE relationship route
// and the depth-1 delegation path for batch checks and audiences, where the
// router hands the whole query to the single owning backend.
func TestHandlerUnrelateAndDelegatedBatch(t *testing.T) {
	srv, r, _ := newTestServer(t, 2)
	ctx := context.Background()
	for _, u := range []string{"p0", "p1", "p2"} {
		if _, err := r.AddUser(ctx, u, nil); err != nil {
			t.Fatalf("AddUser(%s): %v", u, err)
		}
	}
	if err := r.Relate(ctx, "p0", "p1", "friend", false); err != nil {
		t.Fatal(err)
	}
	if err := r.Relate(ctx, "p0", "p2", "friend", false); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Share(ctx, "memo", "p0", []string{"friend*[1]"}); err != nil {
		t.Fatal(err)
	}

	// Depth-1 policy: the router delegates the batch and the audience to the
	// owner's backend in one call instead of scattering.
	resp := postJSON(t, srv.URL+"/v1/check-batch", map[string]any{
		"resource": "memo", "requesters": []string{"p1", "p2"},
	})
	wantStatus(t, resp, http.StatusOK)
	batch := decodeJSON[httpapi.CheckBatchResponse](t, resp)
	if len(batch.Decisions) != 2 || batch.Decisions[0].Effect != "allow" || batch.Decisions[1].Effect != "allow" {
		t.Fatalf("delegated batch = %+v", batch.Decisions)
	}
	audResp, err := http.Get(srv.URL + "/v1/audience?resource=memo")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, audResp, http.StatusOK)
	aud := decodeJSON[httpapi.UsersResponse](t, audResp)
	if len(aud.Users) != 2 {
		t.Fatalf("delegated audience = %v, want p1 and p2", aud.Users)
	}

	// DELETE the edge over the wire; the audience must shrink, and deleting
	// it again reports the unknown relationship.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/relationships",
		strings.NewReader(`{"from":"p0","to":"p1","type":"friend"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusNoContent)
	aud2, _, err := r.Audience(ctx, "memo")
	if err != nil || len(aud2) != 1 || aud2[0] != "p2" {
		t.Fatalf("audience after unrelate = %v, %v; want [p2]", aud2, err)
	}
	req, err = http.NewRequest(http.MethodDelete, srv.URL+"/v1/relationships",
		strings.NewReader(`{"from":"p0","to":"p1","type":"friend"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusNotFound)
}
