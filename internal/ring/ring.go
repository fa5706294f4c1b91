// Package ring implements the consistent-hash ring the shard router and the
// shard backends share: user and resource-owner NAMES (the only identifiers
// stable across shards — numeric node IDs are assigned per shard) hash onto
// a circle of virtual nodes, and the first virtual node at or after a name's
// hash owns it.
//
// The ring is deterministic: the same (shards, vnodes) parameters produce the
// same placement in every process, so a stateless shard can classify which
// frontier nodes it owns from the parameters alone, without the router
// shipping a membership table.
package ring

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per shard: enough to spread
// ownership within a few percent of uniform, cheap enough to rebuild per
// request on a shard (shards keep the last ring they built anyway).
const DefaultVNodes = 64

// maxPoints bounds shards × vnodes, the virtual nodes one ring places: far
// above any deployment (1 024 shards at DefaultVNodes), and low enough that
// parameters arriving over the wire cannot make a shard allocate more than a
// megabyte for a ring.
const maxPoints = 1 << 16

// Ring places names on shards by consistent hashing.
type Ring struct {
	shards int
	vnodes int
	points []point // sorted by hash
}

type point struct {
	hash  uint64
	shard int
}

// New builds a ring over shards backends with vnodes virtual nodes each
// (vnodes <= 0 selects DefaultVNodes), at most maxPoints in all.
func New(shards, vnodes int) (*Ring, error) {
	if shards < 1 {
		return nil, fmt.Errorf("ring: need at least one shard, got %d", shards)
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	if vnodes > maxPoints/shards {
		return nil, fmt.Errorf("ring: %d shards × %d virtual nodes exceed %d points", shards, vnodes, maxPoints)
	}
	r := &Ring{shards: shards, vnodes: vnodes, points: make([]point, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hashString("shard-" + strconv.Itoa(s) + "-vnode-" + strconv.Itoa(v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Deterministic tiebreak for (vanishingly unlikely) hash collisions,
		// so every process sorts identically.
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Shards returns the backend count.
func (r *Ring) Shards() int { return r.shards }

// VNodes returns the per-shard virtual node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner returns the shard owning name: the shard of the first virtual node
// clockwise from the name's hash.
func (r *Ring) Owner(name string) int {
	if r.shards == 1 {
		return 0
	}
	h := hashString(name)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// hashString is 64-bit FNV-1a finished with a splitmix64 avalanche: stable
// across processes and platforms, which the router/shard ownership agreement
// depends on. FNV alone disperses the structured vnode keys ("shard-S-vnode-V")
// poorly — without the finalizer a 4-shard ring left one shard owning nearly
// half the circle and another 6%.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
