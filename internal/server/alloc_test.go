//go:build !race

package server_test

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// The allocation budget is excluded under the race detector, whose
// sync.Pool drops pooled buffers at random.

// TestCheckHandlerAllocs pins the check handler's allocation budget: the
// query is scanned in place and the decision appended into a pooled buffer,
// so what is left is the snapshot pin's one allocation.
func TestCheckHandlerAllocs(t *testing.T) {
	srv := checkServer(t)
	for _, requester := range []string{"u0002", "u0150"} { // an allow and a deny
		req := httptest.NewRequest(http.MethodGet, "/v1/check?resource=photo&requester="+requester, nil)
		w := &discardResponse{h: make(http.Header)}
		if got := testing.AllocsPerRun(200, func() { srv.ServeHTTP(w, req) }); got > 1 {
			t.Errorf("check %s: %v allocs per request, want at most 1", requester, got)
		}
		if w.code != http.StatusOK {
			t.Fatalf("check %s: HTTP %d", requester, w.code)
		}
	}
}
