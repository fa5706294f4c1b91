// Package generate builds seeded synthetic social graphs for the
// evaluation the paper defers to future work (§5: "real and large
// representative synthetic datasets").
//
// # Topologies
//
// The core abstraction is [Topology]: a deterministic, seeded graph
// emitted as a stream of node ops followed by edge ops, so a consumer can
// write a million-node graph without materializing it (cmd/gengraph
// streams to disk) or build it in one pass ([Build], whose graph
// reachac.FromGraph serves and reachac.Create makes durable). Construct
// one with [New] and functional options:
//
//	t, err := generate.New("ldbc",
//	    generate.WithNodes(1_000_000),
//	    generate.WithSeed(42),
//	    generate.WithCommunities(64),
//	    generate.WithDegree(8),
//	)
//
// Five families are available (see [Kinds]): "osn" (community-structured
// social graph with typed edges, reciprocity and attributes — the
// E-series experiments' generator), "ldbc" (LDBC-SNB-style power-law
// graph with Chung-Lu target sampling and Pareto out-degrees, the
// bounded-memory family for 1M+ nodes), and the classical "er", "ba" and
// "ws" random-graph families.
//
// Small graphs can be materialized with [Build] / [MustBuild]; [Count]
// and [Fingerprint] stream without materializing.
//
// # Options
//
// Options not consumed by a family are ignored; invalid combinations
// (e.g. WithAcyclic on "ldbc") are rejected by [New]. Zero or negative
// values fall back to per-kind defaults documented on each option.
package generate
