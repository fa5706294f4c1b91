// Command acserverd serves reachability-based access control over HTTP: it
// opens (or creates) a durable network directory and exposes the JSON API of
// internal/httpapi — users, relationships, share/revoke, check, check-batch,
// audience, raw reachability, policies, audit tail, health and stats.
//
// Usage:
//
//	acserverd -dir /var/lib/reachac [-addr :8708] [-engine online|closure|index|...]
//	          [-sync always|interval|never] [-sync-interval 50ms]
//	          [-checkpoint-every 4194304] [-max-checks 64] [-max-queue 1024]
//	          [-coalesce 128] [-coalesce-wait 0] [-follow leader:8708]
//
// With -follow the daemon runs as a read replica: it mirrors the leader's
// write-ahead log into -dir (bootstrapping from the leader's checkpoint if
// needed), serves the read API off the replicated state — every response
// carrying an X-Replica-Staleness-Ms freshness bound — and rejects mutations
// with 503/read-only. Losing the leader degrades to stale serving, never an
// outage. To promote, stop the daemon and restart it on the same -dir
// without -follow: the leader restart bumps the leadership epoch, so the old
// leader (should it return) is superseded.
//
// The bound address is announced on stdout as "ACSERVERD_LISTEN=<addr>"
// before serving starts, so -addr 127.0.0.1:0 (a kernel-assigned free
// port) is scriptable: start the daemon, scrape the line, point clients
// at it.
//
// Concurrent mutations are coalesced into shared write-ahead-log commit
// groups (one fsync covers many writers); reads are served lock-free off the
// published engine snapshot behind an admission limiter that sheds overload
// with 503 + Retry-After. SIGINT/SIGTERM shut the daemon down gracefully:
// the listener stops, queued mutations drain and commit, a final checkpoint
// compacts the log (skipped when nothing changed), and the directory is
// released. A SIGKILL instead loses nothing acknowledged: the next start
// replays the log tail.
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"reachac"
	"reachac/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("acserverd: ")
	var (
		addr         = flag.String("addr", ":8708", "listen address")
		dir          = flag.String("dir", "", "durable network directory (required; created if absent)")
		engine       = flag.String("engine", "online", "evaluator: online, closure, index")
		syncMode     = flag.String("sync", "always", "WAL fsync policy: always, interval, never")
		syncInterval = flag.Duration("sync-interval", 50*time.Millisecond, "fsync cadence under -sync interval")
		ckptEvery    = flag.Int64("checkpoint-every", reachac.DefaultCheckpointEvery, "WAL segment bytes triggering a background checkpoint (<=0 disables)")
		maxChecks    = flag.Int("max-checks", 0, "max concurrent read requests (0 = 4×GOMAXPROCS)")
		maxQueue     = flag.Int("max-queue", 0, "mutation admission queue bound (0 = 1024)")
		coalesce     = flag.Int("coalesce", 0, "max mutations folded into one commit group (0 = 128)")
		coalesceWait = flag.Duration("coalesce-wait", 0, "how long the committer lingers for more mutations (0 = drain-only)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
		follow       = flag.String("follow", "", "run as a read replica of the leader at this address")
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}
	kind, err := reachac.ParseEngineKind(*engine)
	if err != nil {
		log.Fatal(err)
	}

	syncOpt, err := server.SyncOption(*syncMode, *syncInterval)
	if err != nil {
		log.Fatal(err)
	}
	opts := []reachac.Option{reachac.WithEngine(kind), reachac.WithCheckpointEvery(*ckptEvery), syncOpt}
	if *follow != "" {
		opts = append(opts, reachac.WithFollow(*follow))
	}
	n, err := reachac.Open(*dir, opts...)
	if err != nil {
		log.Fatal(err)
	}
	rec := n.Recovery()
	log.Printf("recovered %d users, %d relationships from %s (%d WAL groups past checkpoint %d, torn tail: %v)",
		n.NumUsers(), n.NumRelationships(), *dir, rec.Groups, rec.CheckpointSeq, rec.TornTail)
	if n.Follower() {
		rs := n.ReplicaStatus()
		log.Printf("following %s (epoch %d) as a read replica; mutations are rejected", rs.Leader, rs.Epoch)
	}

	srv := server.New(n, server.Config{
		MaxConcurrentChecks: *maxChecks,
		MaxQueuedMutations:  *maxQueue,
		CoalesceBatch:       *coalesce,
		CoalesceWait:        *coalesceWait,
	})
	log.Printf("serving the %s engine", kind)
	if err := server.Serve("acserverd", *addr, srv, *drainTimeout, srv.Shutdown); err != nil {
		log.Fatal(err)
	}
}
