// Package shard is the horizontal-scaling layer: a partition-aware router
// that consistent-hashes users and resource owners across N shard backends,
// each a full reachac stack with its own durable WAL directory. Backends are
// either embedded Networks (in-process, for benchmarking and tests) or real
// acserverd processes reached through the typed client package.
//
// Placement invariants the router maintains:
//
//   - Users (with their attributes) are replicated to EVERY shard, so any
//     shard can resolve names and evaluate node predicates.
//   - A relationship is written to the shard owning each endpoint — one
//     write when co-located, two when the edge straddles the partition cut
//     (boundary-node replication). An owned node's adjacency is therefore
//     COMPLETE on its owner shard, which is what lets the distributed
//     search make multi-hop progress locally and hand over exactly at
//     ownership boundaries.
//   - A resource's policy lives on the shard owning its owner's name; the
//     router keeps a name-keyed routing cache of every policy (rebuilt from
//     the shards at startup) to route checks and catch cross-shard
//     ownership conflicts.
//
// Queries either delegate whole to one shard (single-shard fast path: one
// backend total, or a policy whose every condition is a single depth-1 step,
// answerable from the owner's complete local adjacency) or scatter-gather:
// the router drives a distributed product-BFS round by round across the
// owning shards (reachac.ShardExpand), merging audiences and deduplicating
// states globally. Checks fail CLOSED when a needed shard is unreachable;
// audiences degrade to a partial answer flagged with the X-Shard-Partial
// header.
package shard

import (
	"context"

	"reachac"
	"reachac/client"
	"reachac/internal/httpapi"
	"reachac/internal/server"
)

// Backend is one shard as the router drives it: the mutating and deciding
// half of server.Service plus the two shard-internal reads (one round of the
// distributed search, the name-keyed policy dump). All identifiers are
// names: numeric IDs are shard-local and never compared across backends.
// Embedded and remote implementations return the same sentinel errors
// (directly, or via the client's code mapping), so the router classifies
// failures uniformly.
type Backend interface {
	AddUser(ctx context.Context, name string, attrs map[string]any) (uint32, error)
	UserID(ctx context.Context, name string) (uint32, error)
	Relate(ctx context.Context, from, to, relType string, mutual bool) error
	Unrelate(ctx context.Context, from, to, relType string) error
	Share(ctx context.Context, resource, owner string, paths []string) (string, error)
	Revoke(ctx context.Context, resource, rule string) (bool, error)

	Check(ctx context.Context, resource, requester string) (httpapi.Decision, error)
	CheckBatch(ctx context.Context, resource string, requesters []string) ([]httpapi.Decision, error)
	Audience(ctx context.Context, resource string) (names []string, partial []int, err error)

	Expand(ctx context.Context, req reachac.ShardExpandRequest) (reachac.ShardExpandResponse, error)
	Policies(ctx context.Context) ([]reachac.ResourcePolicy, error)
	Stats(ctx context.Context) (httpapi.StatsResponse, error)
	Close() error
}

// Embedded is an in-process shard: the same single-network service acserverd
// serves, called without the wire — so an embedded shard resolves names
// inside its transactions, reports failed commits and coalesces concurrent
// writers exactly like a remote one. The router owns the network's
// lifecycle: Close drains and closes it.
type Embedded = server.Local

// NewEmbedded wraps n as a shard backend.
func NewEmbedded(n *reachac.Network) *Embedded { return server.NewLocal(n, server.Config{}) }

// --- remote backend ---

// Remote drives a real acserverd process through the typed client.
type Remote struct {
	c *client.Client
}

// NewRemote wraps a client as a shard backend.
func NewRemote(c *client.Client) *Remote { return &Remote{c: c} }

func (b *Remote) AddUser(ctx context.Context, name string, attrs map[string]any) (uint32, error) {
	id, err := b.c.AddUser(ctx, name, attrs)
	return uint32(id), err
}

func (b *Remote) UserID(ctx context.Context, name string) (uint32, error) {
	id, err := b.c.UserID(ctx, name)
	return uint32(id), err
}

func (b *Remote) Relate(ctx context.Context, from, to, relType string, mutual bool) error {
	if mutual {
		return b.c.RelateMutual(ctx, from, to, relType)
	}
	return b.c.Relate(ctx, from, to, relType)
}

func (b *Remote) Unrelate(ctx context.Context, from, to, relType string) error {
	return b.c.Unrelate(ctx, from, to, relType)
}

func (b *Remote) Share(ctx context.Context, resource, owner string, paths []string) (string, error) {
	return b.c.Share(ctx, resource, owner, paths...)
}

func (b *Remote) Revoke(ctx context.Context, resource, rule string) (bool, error) {
	return b.c.Revoke(ctx, resource, rule)
}

func (b *Remote) Check(ctx context.Context, resource, requester string) (httpapi.Decision, error) {
	return b.c.Check(ctx, resource, requester)
}

func (b *Remote) CheckBatch(ctx context.Context, resource string, requesters []string) ([]httpapi.Decision, error) {
	return b.c.CheckBatch(ctx, resource, requesters)
}

func (b *Remote) Audience(ctx context.Context, resource string) ([]string, []int, error) {
	names, err := b.c.Audience(ctx, resource)
	return names, nil, err
}

func (b *Remote) Expand(ctx context.Context, req reachac.ShardExpandRequest) (reachac.ShardExpandResponse, error) {
	return b.c.ShardExpand(ctx, req)
}

func (b *Remote) Policies(ctx context.Context) ([]reachac.ResourcePolicy, error) {
	return b.c.ShardPolicies(ctx)
}

func (b *Remote) Stats(ctx context.Context) (httpapi.StatsResponse, error) {
	return b.c.Stats(ctx)
}

func (b *Remote) Close() error { return nil }
