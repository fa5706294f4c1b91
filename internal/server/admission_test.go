package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"reachac"
	"reachac/internal/httpapi"
)

func TestGate(t *testing.T) {
	g := newGate(1, -1)
	ctx := context.Background()
	if !g.acquire(ctx) {
		t.Fatal("first acquire refused")
	}
	if g.acquire(ctx) {
		t.Fatal("second acquire admitted past the limit")
	}
	g.release()
	if !g.acquire(ctx) {
		t.Fatal("acquire after release refused")
	}
	g.release()
}

func TestGateWaitsWithinWindow(t *testing.T) {
	g := newGate(1, time.Second)
	ctx := context.Background()
	g.acquire(ctx)
	done := make(chan bool, 1)
	go func() { done <- g.acquire(ctx) }()
	time.Sleep(5 * time.Millisecond)
	g.release()
	if !<-done {
		t.Fatal("waiter not admitted when the slot freed")
	}
	g.release()

	// An expired request context rejects promptly even inside the window.
	g.acquire(ctx)
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if g.acquire(cctx) {
		t.Fatal("cancelled context admitted")
	}
	g.release()
}

// TestMutationQueueRejectsWhenFull saturates the bounded admission queue
// behind a deliberately slow commit and expects 503 + Retry-After.
func TestMutationQueueRejectsWhenFull(t *testing.T) {
	n := reachac.New()
	s := New(n, Config{MaxQueuedMutations: 1})
	defer s.Shutdown(context.Background())

	// Occupy the committer with a mutation that blocks mid-batch.
	release := make(chan struct{})
	picked := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.co.enqueue(context.Background(), func(tx *reachac.Tx) error {
			close(picked)
			<-release
			return nil
		})
	}()
	<-picked

	// Fill the queue (capacity 1) behind the stalled commit.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.co.enqueue(context.Background(), func(tx *reachac.Tx) error { return nil })
	}()
	deadline := time.Now().Add(time.Second)
	for s.co.depth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued mutation never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	// The next mutation must be shed, not queued.
	req := httptest.NewRequest(http.MethodPost, httpapi.PathUsers,
		strings.NewReader(`{"name":"alice"}`))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d, want 503; body %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var body httpapi.ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Code != httpapi.CodeOverloaded {
		t.Fatalf("error body = %s (%v)", w.Body, err)
	}
	if s.co.rejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}

	close(release)
	wg.Wait()

	// Once drained, mutations are admitted again.
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, httpapi.PathUsers,
		strings.NewReader(`{"name":"alice"}`)))
	if w.Code != http.StatusCreated {
		t.Fatalf("HTTP %d after drain, want 201; body %s", w.Code, w.Body)
	}
}

// TestCheckAdmissionSheds rejects reads beyond the concurrency limit with
// 503 + Retry-After.
func TestCheckAdmissionSheds(t *testing.T) {
	n := reachac.New()
	alice := n.MustAddUser("alice")
	n.MustAddUser("bob")
	if _, err := n.Share("photo", alice, "friend+[1]"); err != nil {
		t.Fatal(err)
	}
	s := New(n, Config{MaxConcurrentChecks: 1, AdmitWait: -1})
	defer s.Shutdown(context.Background())

	// Occupy the only slot directly, then expect shedding.
	if !s.gate.acquire(context.Background()) {
		t.Fatal("slot not acquired")
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, httpapi.PathCheck+"?resource=photo&requester=bob", nil))
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("saturated check: HTTP %d, Retry-After %q", w.Code, w.Header().Get("Retry-After"))
	}
	if s.checkRejected.Load() != 1 {
		t.Fatalf("checkRejected = %d", s.checkRejected.Load())
	}
	s.gate.release()
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, httpapi.PathCheck+"?resource=photo&requester=bob", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("check after release: HTTP %d, body %s", w.Code, w.Body)
	}
}

// TestCoalescerPartialFailure proves one writer's failure inside a shared
// commit group neither fails nor rolls back its groupmates.
func TestCoalescerPartialFailure(t *testing.T) {
	n := reachac.New()
	a := n.MustAddUser("a")
	b := n.MustAddUser("b")
	s := New(n, Config{CoalesceWait: 5 * time.Millisecond, CoalesceBatch: 8})
	defer s.Shutdown(context.Background())

	// Stall the committer so all three mutations share one group.
	release := make(chan struct{})
	picked := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.co.enqueue(context.Background(), func(tx *reachac.Tx) error {
			close(picked)
			<-release
			return nil
		})
	}()
	<-picked

	errCh := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errCh <- s.co.enqueue(context.Background(), func(tx *reachac.Tx) error {
			return tx.Relate(a, b, "friend")
		})
	}()
	go func() {
		defer wg.Done()
		errCh <- s.co.enqueue(context.Background(), func(tx *reachac.Tx) error {
			return tx.Relate(a, 9999, "friend") // fails: unknown user
		})
	}()
	deadline := time.Now().Add(time.Second)
	for s.co.depth() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("mutations never queued behind the stall")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	var ok, failed int
	for i := 0; i < 2; i++ {
		if err := <-errCh; err == nil {
			ok++
		} else {
			failed++
		}
	}
	if ok != 1 || failed != 1 {
		t.Fatalf("ok=%d failed=%d, want exactly one of each", ok, failed)
	}
	if !n.Graph().HasEdge(a, b, "friend") {
		t.Fatal("successful groupmate rolled back by its neighbour's failure")
	}
}

// TestReadsTakeNoMutationLock: every read of a Local — name resolution
// included — is answered from a pinned view, so none waits for a writer
// holding the network's mutation lock (an embedded shard's UserID used to).
func TestReadsTakeNoMutationLock(t *testing.T) {
	n := reachac.New()
	n.MustAddUser("alice")
	l := NewLocal(n, Config{})
	defer l.Close()
	ctx := context.Background()
	if _, err := l.UserID(ctx, "alice"); err != nil { // publishes the snapshot
		t.Fatal(err)
	}

	inTx, release := make(chan struct{}), make(chan struct{})
	go n.Batch(func(*reachac.Tx) error {
		close(inTx)
		<-release
		return nil
	})
	<-inTx
	defer close(release)

	done := make(chan error, 1)
	go func() {
		_, err := l.UserID(ctx, "alice")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("UserID waited for the mutation lock")
	}
}
