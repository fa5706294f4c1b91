// Command acshardd is the shard router daemon: it consistent-hashes users
// and resources across N shard backends and serves the same HTTP/JSON API
// as acserverd, so the typed client package works against a sharded
// deployment unchanged (internal/shard documents the placement and
// scatter-gather semantics).
//
// Two backend modes:
//
//	acshardd -backends host1:8708,host2:8708        # real acserverd shards
//	acshardd -shards 4 -dir /var/lib/acshard        # embedded shards
//
// With -backends each comma-separated address is one shard, reached over
// HTTP; the shard COUNT and ORDER define the hash ring, so every router
// (and every acbench run) against the same shard set must list them
// identically. With -shards N the daemon embeds N in-process networks, each
// durable in its own subdirectory <dir>/shard-<i> — single-machine sharding
// for benchmarks and smoke tests.
//
// The bound address is announced on stdout as "ACSHARDD_LISTEN=<addr>"
// before serving starts, so -addr 127.0.0.1:0 is scriptable exactly like
// acserverd.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"reachac"
	"reachac/client"
	"reachac/internal/ring"
	"reachac/internal/server"
	"reachac/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("acshardd: ")
	var (
		addr         = flag.String("addr", ":8709", "listen address")
		backendsFlag = flag.String("backends", "", "comma-separated acserverd shard addresses (remote mode)")
		shards       = flag.Int("shards", 0, "embedded shard count (embedded mode; requires -dir)")
		dir          = flag.String("dir", "", "base directory for embedded shards (shard-<i> subdirectories)")
		syncMode     = flag.String("sync", "always", "embedded shards' WAL fsync policy: always, interval, never")
		vnodes       = flag.Int("vnodes", ring.DefaultVNodes, "virtual nodes per shard on the hash ring")
		timeout      = flag.Duration("shard-timeout", 2*time.Second, "per-shard deadline on scatter calls")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
	)
	flag.Parse()

	var backends []shard.Backend
	switch {
	case *backendsFlag != "" && *shards > 0:
		log.Fatal("-backends and -shards are mutually exclusive")
	case *backendsFlag != "":
		for _, a := range strings.Split(*backendsFlag, ",") {
			c, err := client.New(strings.TrimSpace(a))
			if err != nil {
				log.Fatal(err)
			}
			backends = append(backends, shard.NewRemote(c))
		}
	case *shards > 0:
		if *dir == "" {
			log.Fatal("-shards requires -dir")
		}
		syncOpt, err := server.SyncOption(*syncMode, 50*time.Millisecond)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < *shards; i++ {
			n, err := reachac.Open(filepath.Join(*dir, fmt.Sprintf("shard-%d", i)), syncOpt)
			if err != nil {
				log.Fatal(err)
			}
			backends = append(backends, shard.NewEmbedded(n))
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	router, err := shard.New(context.Background(), backends, shard.Config{
		VNodes:       *vnodes,
		ShardTimeout: *timeout,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("routing %d shards (%d vnodes/shard)", router.Shards(), *vnodes)
	closeShards := func(context.Context) error { return router.Close() }
	if err := server.Serve("acshardd", *addr, server.NewHandler(router), *drainTimeout, closeShards); err != nil {
		log.Fatal(err)
	}
}
