package shard_test

import (
	"context"
	"fmt"
	"testing"

	"reachac"
	"reachac/internal/generate"
	"reachac/internal/graph"
	"reachac/internal/shard"
)

// BenchmarkRouterScatter measures the router's scatter reads: four embedded
// shards hold a 5 000-node ldbc graph of degree 8, seeded through the router
// so placement and boundary replication are the router's own. Each resource
// shares one expression of the repository benchmark's deep catalog, so no
// read delegates to a single shard. The check arm decides one (resource,
// requester) pair per op; the audience arm enumerates one resource per op.
func BenchmarkRouterScatter(b *testing.B) {
	const nodes = 5000
	top, err := generate.New("ldbc", generate.WithNodes(nodes), generate.WithDegree(8), generate.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	g, err := generate.Build(top)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	backends := make([]shard.Backend, 4)
	for i := range backends {
		backends[i] = shard.NewEmbedded(reachac.New())
	}
	r, err := shard.New(ctx, backends, shard.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	name := func(i int) string { return g.Node(graph.NodeID(i)).Name }
	for i := 0; i < nodes; i++ {
		if _, err := r.AddUser(ctx, name(i), nil); err != nil {
			b.Fatal(err)
		}
	}
	g.Edges(func(e graph.Edge) bool {
		err = r.Relate(ctx, name(int(e.From)), name(int(e.To)), g.LabelName(e.Label), false)
		return err == nil
	})
	if err != nil {
		b.Fatal(err)
	}
	paths := []string{"friend+[1,3]", "friend+[1,4]", "colleague+[1]/friend+[1,2]",
		"friend+[1,2]/colleague+[1]/friend+[1]", "friend-[1]/colleague+[1]"}
	resources := make([]string, len(paths))
	for i, p := range paths {
		resources[i] = fmt.Sprintf("res-%d", i)
		// 997 is prime to 5 000, so owners spread over the graph.
		if _, err := r.Share(ctx, resources[i], name(i*997%nodes), []string{p}); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("check", func(b *testing.B) {
		allowed := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := r.Check(ctx, resources[i%len(resources)], name(i*7919%nodes))
			if err != nil {
				b.Fatal(err)
			}
			if d.Effect == "allow" {
				allowed++
			}
		}
		b.ReportMetric(float64(allowed)/float64(b.N), "allows/op")
	})
	b.Run("audience", func(b *testing.B) {
		members := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			names, partial, err := r.Audience(ctx, resources[i%len(resources)])
			if err != nil || len(partial) > 0 {
				b.Fatalf("audience: partial %v, err %v", partial, err)
			}
			members += len(names)
		}
		b.ReportMetric(float64(members)/float64(b.N), "members/op")
	})
}
