package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"reachac"
	"reachac/client"
	"reachac/internal/httpapi"
	"reachac/internal/server"
)

// fakeServer answers every request with one canned error response.
func fakeServer(t *testing.T, status int, body httpapi.ErrorBody, retryAfter string) *client.Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = writeJSON(w, body)
	}))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func writeJSON(w http.ResponseWriter, v httpapi.ErrorBody) error {
	_, err := w.Write([]byte(`{"error":"` + v.Error + `","code":"` + v.Code + `"}`))
	return err
}

// TestErrorMapping pins that wire codes come back as the facade's sentinel
// errors under errors.Is, the whole point of the typed client.
func TestErrorMapping(t *testing.T) {
	cases := []struct {
		code     string
		status   int
		sentinel error
	}{
		{httpapi.CodeUnknownUser, http.StatusNotFound, reachac.ErrUnknownUser},
		{httpapi.CodeDuplicateUser, http.StatusConflict, reachac.ErrDuplicateUser},
		{httpapi.CodeUnknownResource, http.StatusNotFound, reachac.ErrUnknownResource},
		{httpapi.CodeUnknownRelationship, http.StatusNotFound, reachac.ErrUnknownRelationship},
		{httpapi.CodeDuplicateRelationship, http.StatusConflict, reachac.ErrDuplicateRelationship},
		{httpapi.CodeSelfRelationship, http.StatusBadRequest, reachac.ErrSelfRelationship},
		{httpapi.CodeResourceOwned, http.StatusConflict, reachac.ErrResourceOwned},
		{httpapi.CodeReadOnly, http.StatusServiceUnavailable, reachac.ErrReadOnly},
		{httpapi.CodeClosed, http.StatusServiceUnavailable, reachac.ErrClosed},
	}
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			c := fakeServer(t, tc.status, httpapi.ErrorBody{Error: "nope", Code: tc.code}, "")
			_, err := c.Check(context.Background(), "r", "u")
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("code %q: errors.Is(%v, %v) = false", tc.code, err, tc.sentinel)
			}
			var apiErr *client.Error
			if !errors.As(err, &apiErr) || apiErr.Status != tc.status || apiErr.Message != "nope" {
				t.Fatalf("As(*client.Error) = %+v", apiErr)
			}
			// No cross-talk: a code must match only its own sentinel.
			for _, other := range cases {
				if other.sentinel != tc.sentinel && errors.Is(err, other.sentinel) {
					t.Fatalf("code %q also matched %v", tc.code, other.sentinel)
				}
			}
		})
	}
}

// TestOverloadedMapping pins the load-shedding contract: 503 + code
// overloaded is client.ErrOverloaded carrying the Retry-After hint.
func TestOverloadedMapping(t *testing.T) {
	c := fakeServer(t, http.StatusServiceUnavailable,
		httpapi.ErrorBody{Error: "queue full", Code: httpapi.CodeOverloaded}, "2")
	err := c.Relate(context.Background(), "a", "b", "friend")
	if !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("errors.Is(ErrOverloaded) = false for %v", err)
	}
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.RetryAfter != 2*time.Second {
		t.Fatalf("Retry-After not surfaced: %+v", apiErr)
	}
}

// TestBadAddress pins New's address validation and normalization.
func TestBadAddress(t *testing.T) {
	if _, err := client.New("://nope"); err == nil {
		t.Fatal("malformed address accepted")
	}
	if _, err := client.New(""); err == nil {
		t.Fatal("empty address accepted")
	}
	if _, err := client.New("localhost:8708"); err != nil {
		t.Fatalf("bare host:port rejected: %v", err)
	}
	c, err := client.New("localhost:8708/")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.BaseURL(); got != "http://localhost:8708" {
		t.Fatalf("BaseURL = %q, want normalized http://localhost:8708", got)
	}
}

// TestErrorBodyDrainedConnectionReused pins the error path of a pooled-body
// read: a 503 is still decoded into its *Error with the Retry-After hint,
// the staleness header is still recorded, and the error body is drained
// (padding and all) so the next request reuses the keep-alive connection.
func TestErrorBodyDrainedConnectionReused(t *testing.T) {
	var conns atomic.Int32
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(httpapi.HeaderStaleness, "7")
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		// Padding past what one read of the error decoder takes in.
		_, _ = w.Write([]byte(`{"error":"queue full","code":"overloaded"}` + strings.Repeat(" ", 32<<10)))
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	for i, call := range []func() error{
		func() error { _, err := c.Check(context.Background(), "photo", "bob"); return err },
		func() error { _, err := c.CheckBatch(context.Background(), "photo", []string{"bob"}); return err },
	} {
		err := call()
		var apiErr *client.Error
		if !errors.Is(err, client.ErrOverloaded) || !errors.As(err, &apiErr) ||
			apiErr.Message != "queue full" || apiErr.RetryAfter != time.Second {
			t.Fatalf("call %d: %v, want overloaded with its message and Retry-After", i, err)
		}
	}
	if d, ok := c.Staleness(); !ok || d != 7*time.Millisecond {
		t.Fatalf("Staleness() = %v, %v; want 7ms", d, ok)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d connections for two requests, want the keep-alive one reused", n)
	}
}

// BenchmarkClientCheck measures a check and a 16-requester batch through
// the typed client and the whole server stack over loopback.
func BenchmarkClientCheck(b *testing.B) {
	n := reachac.New()
	alice := n.MustAddUser("alice")
	prev := alice
	requesters := make([]string, 16)
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("u%04d", i)
		u := n.MustAddUser(name)
		if err := n.Relate(prev, u, "friend"); err != nil {
			b.Fatal(err)
		}
		if i%2 == 0 && i/2 < len(requesters) {
			requesters[i/2] = name
		}
		prev = u
	}
	if _, err := n.Share("photo", alice, "friend+[1,3]"); err != nil {
		b.Fatal(err)
	}
	srv := server.New(n, server.Config{})
	ts := httptest.NewServer(srv)
	b.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})
	c, err := client.New(ts.URL)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("check", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := c.Check(ctx, "photo", "u0002"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch16", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := c.CheckBatch(ctx, "photo", requesters); err != nil {
				b.Fatal(err)
			}
		}
	})
}
