// Package server is the HTTP serving layer: one handler set (NewHandler)
// speaking the JSON API of internal/httpapi over a Service — the
// name-addressed form of the paper's contract — and Local, the Service over
// one reachac.Network.
//
// Local answers reads (check, check-batch, audience, reach, audit) straight
// off the published engine snapshot through the facade's View API — no
// per-request locking — behind a concurrency gate that sheds load with
// 503 + Retry-After instead of queueing unboundedly. Mutations (users,
// relationships, share, revoke) are coalesced: concurrent requests are
// folded into shared Batch commit groups so one WAL fsync covers many
// writers, with a bounded, deadline-aware admission queue in front.
//
// New is what acserverd mounts: the shared routes over a Local plus the ones
// only a single node has. acshardd mounts NewHandler over a shard.Router,
// whose embedded shards are Locals again.
package server

import (
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"reachac"
	"reachac/internal/httpapi"
)

// Config tunes a Local; the zero value selects the defaults.
type Config struct {
	// MaxConcurrentChecks bounds in-flight read requests (default
	// 4×GOMAXPROCS).
	MaxConcurrentChecks int
	// MaxQueuedMutations bounds the mutation admission queue (default 1024);
	// a full queue rejects with 503 + Retry-After.
	MaxQueuedMutations int
	// CoalesceBatch caps how many mutation requests one commit group may
	// carry (default 128).
	CoalesceBatch int
	// CoalesceWait is how long the committer lingers for more mutations
	// after gathering the first (default 0: coalesce only what is already
	// queued, adding no latency).
	CoalesceWait time.Duration
	// AdmitWait is how long a read waits for a check slot before rejection
	// (default 100ms).
	AdmitWait time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrentChecks <= 0 {
		c.MaxConcurrentChecks = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueuedMutations <= 0 {
		c.MaxQueuedMutations = 1024
	}
	if c.CoalesceBatch <= 0 {
		c.CoalesceBatch = 128
	}
	if c.AdmitWait == 0 {
		c.AdmitWait = 100 * time.Millisecond
	}
	return c
}

// Server exposes one Network over HTTP. Create with New, mount as an
// http.Handler, and call Shutdown to drain and release the network.
type Server struct {
	*Local
	mux *http.ServeMux
}

// New wraps n in a serving layer: the shared routes over a Local, plus what
// only a single node can answer — the policy store's serialization (it
// embeds node-local IDs), the /v1/shard/* endpoints a router drives, and,
// on a durable leader, the WAL-shipping endpoints followers attach to. The
// server takes over the network's lifecycle (see Local.Shutdown).
func New(n *reachac.Network, cfg Config) *Server {
	s := &Server{Local: NewLocal(n, cfg)}
	s.mux = NewHandler(s.Local)
	s.mux.HandleFunc("GET "+httpapi.PathPolicies, s.getPolicies)
	s.mux.HandleFunc("PUT "+httpapi.PathPolicies, s.putPolicies)
	s.mux.HandleFunc("POST "+httpapi.PathShardExpand, s.shardExpand)
	s.mux.HandleFunc("GET "+httpapi.PathShardPolicies, s.shardPolicies)
	if src := n.ReplicaSource(); src != nil {
		src.Register(s.mux)
	}
	return s
}

// ServeHTTP implements http.Handler. A follower stamps every response with
// its staleness bound, so clients can judge the freshness of what they read.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.net.Follower() {
		rs := s.net.ReplicaStatus()
		w.Header().Set(httpapi.HeaderStaleness,
			strconv.FormatInt(time.Since(rs.LastContact).Milliseconds(), 10))
	}
	s.mux.ServeHTTP(w, r)
}

func (s *Server) getPolicies(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// On failure the headers are gone; the truncated body is the best signal
	// left.
	_ = s.net.SavePolicies(w)
}

func (s *Server) putPolicies(w http.ResponseWriter, r *http.Request) {
	if err := s.net.LoadPolicies(io.LimitReader(r.Body, 64<<20)); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) shardExpand(w http.ResponseWriter, r *http.Request) {
	var req httpapi.ShardExpandRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.Expand(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) shardPolicies(w http.ResponseWriter, r *http.Request) {
	pols, err := s.Policies(r.Context())
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, httpapi.ShardPoliciesResponse{Policies: pols})
}
