package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"reachac"
	"reachac/internal/shard"
)

// The differential suite: for every engine kind and shard count N ∈ {1,2,4},
// a router over N embedded shards must answer exactly like one unsharded
// Network fed the same trace — same check effects, same audience sets, same
// unknown-user failures — while edges straddle the partition cut and
// mutations interleave with the scatter reads.

// diffCatalog mixes depth-1 (delegated), deep (scattered), reverse,
// predicate and unbounded conditions, so every routing path is exercised.
var diffCatalog = []string{
	`friend*[1]`,
	`friend+[1,2]`,
	`friend+[1,2]/colleague+[1]`,
	`friend-[1]`,
	`parent+[1]/friend+[1,2]`,
	`friend+[1,2]{dept="eng"}`,
	`friend+[2,*]`,
}

var diffLabels = []string{"friend", "colleague", "parent"}

// diffEdge is one candidate relationship the trace toggles.
type diffEdge struct {
	from, to, label string
	present         bool
}

type diffHarness struct {
	t      *testing.T
	ctx    context.Context
	oracle *shard.Embedded // single unsharded network behind the Backend facade
	router *shard.Router
	users  []string
	edges  []diffEdge
	// resources[i] is shared with rules[i] on both sides (rule IDs differ
	// across sides — effects, not rule names, are the comparable surface).
	resources []string
	owners    []string
}

func newDiffHarness(t *testing.T, kind reachac.EngineKind, shards int, rng *rand.Rand) *diffHarness {
	t.Helper()
	ctx := context.Background()
	oracle := shard.NewEmbedded(reachac.New(reachac.WithEngine(kind)))
	t.Cleanup(func() { oracle.Close() })

	backends := make([]shard.Backend, shards)
	for i := range backends {
		backends[i] = shard.NewEmbedded(reachac.New(reachac.WithEngine(kind)))
	}
	router, err := shard.New(ctx, backends, shard.Config{})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	t.Cleanup(func() { router.Close() })

	h := &diffHarness{t: t, ctx: ctx, oracle: oracle, router: router}

	for i := 0; i < 120; i++ {
		name := fmt.Sprintf("u%03d", i)
		var attrs map[string]any
		if i%4 == 0 {
			dept := "eng"
			if i%8 == 0 {
				dept = "ops"
			}
			attrs = map[string]any{"dept": dept, "level": i % 5}
		}
		h.users = append(h.users, name)
		if _, err := oracle.AddUser(ctx, name, attrs); err != nil {
			t.Fatalf("oracle AddUser(%s): %v", name, err)
		}
		if _, err := router.AddUser(ctx, name, attrs); err != nil {
			t.Fatalf("router AddUser(%s): %v", name, err)
		}
	}

	// Candidate edges: unique (from, to, label) triples, no self loops. About
	// half start present; with consistent hashing a healthy share straddles
	// the partition cut.
	seen := make(map[string]struct{})
	for len(h.edges) < 700 {
		from := h.users[rng.Intn(len(h.users))]
		to := h.users[rng.Intn(len(h.users))]
		label := diffLabels[rng.Intn(len(diffLabels))]
		if from == to {
			continue
		}
		key := from + "|" + to + "|" + label
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		h.edges = append(h.edges, diffEdge{from: from, to: to, label: label})
	}
	for i := range h.edges {
		if rng.Intn(2) == 0 {
			h.relate(i)
		}
	}

	for i, path := range diffCatalog {
		res := fmt.Sprintf("res-%d", i)
		owner := h.users[(i*17)%len(h.users)]
		h.share(res, owner, []string{path})
		h.resources = append(h.resources, res)
		h.owners = append(h.owners, owner)
	}

	// Guard against a vacuous pass: with more than one shard the users MUST
	// spread across several owners, or nothing here exercises the partition
	// cut. (A ring regression once parked every sequential name on shard 0,
	// and this suite silently stopped testing cross-shard traversal.)
	if shards > 1 {
		owned := make(map[int]struct{})
		for _, u := range h.users {
			owned[router.Owner(u)] = struct{}{}
		}
		if len(owned) < 2 {
			t.Fatalf("all %d users landed on one of %d shards — the trace would not cross the partition cut", len(h.users), shards)
		}
	}
	return h
}

func (h *diffHarness) relate(i int) {
	e := &h.edges[i]
	if err := h.oracle.Relate(h.ctx, e.from, e.to, e.label, false); err != nil {
		h.t.Fatalf("oracle Relate(%s-%s-%s): %v", e.from, e.label, e.to, err)
	}
	if err := h.router.Relate(h.ctx, e.from, e.to, e.label, false); err != nil {
		h.t.Fatalf("router Relate(%s-%s-%s): %v", e.from, e.label, e.to, err)
	}
	e.present = true
}

func (h *diffHarness) unrelate(i int) {
	e := &h.edges[i]
	if err := h.oracle.Unrelate(h.ctx, e.from, e.to, e.label); err != nil {
		h.t.Fatalf("oracle Unrelate(%s-%s-%s): %v", e.from, e.label, e.to, err)
	}
	if err := h.router.Unrelate(h.ctx, e.from, e.to, e.label); err != nil {
		h.t.Fatalf("router Unrelate(%s-%s-%s): %v", e.from, e.label, e.to, err)
	}
	e.present = false
}

func (h *diffHarness) share(res, owner string, paths []string) {
	if _, err := h.oracle.Share(h.ctx, res, owner, paths); err != nil {
		h.t.Fatalf("oracle Share(%s): %v", res, err)
	}
	if _, err := h.router.Share(h.ctx, res, owner, paths); err != nil {
		h.t.Fatalf("router Share(%s): %v", res, err)
	}
}

func (h *diffHarness) compareCheck(res, req string) {
	h.t.Helper()
	want, werr := h.oracle.Check(h.ctx, res, req)
	got, gerr := h.router.Check(h.ctx, res, req)
	if (werr == nil) != (gerr == nil) {
		h.t.Fatalf("check(%s,%s): oracle err=%v router err=%v", res, req, werr, gerr)
	}
	if werr != nil {
		if errors.Is(werr, reachac.ErrUnknownUser) != errors.Is(gerr, reachac.ErrUnknownUser) {
			h.t.Fatalf("check(%s,%s): error class diverged: oracle %v, router %v", res, req, werr, gerr)
		}
		return
	}
	if want.Effect != got.Effect {
		h.t.Fatalf("check(%s,%s): oracle=%s router=%s (oracle reason %q, router reason %q)",
			res, req, want.Effect, got.Effect, want.Reason, got.Reason)
	}
}

func (h *diffHarness) compareAudience(res string) {
	h.t.Helper()
	want, _, werr := h.oracle.Audience(h.ctx, res)
	got, partial, gerr := h.router.Audience(h.ctx, res)
	if (werr == nil) != (gerr == nil) {
		h.t.Fatalf("audience(%s): oracle err=%v router err=%v", res, werr, gerr)
	}
	if werr != nil {
		return
	}
	if len(partial) > 0 {
		h.t.Fatalf("audience(%s): unexpected partial result from healthy shards: %v", res, partial)
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(want) != len(got) {
		h.t.Fatalf("audience(%s): oracle %d members %v, router %d members %v", res, len(want), want, len(got), got)
	}
	for i := range want {
		if want[i] != got[i] {
			h.t.Fatalf("audience(%s): member %d: oracle %q router %q", res, i, want[i], got[i])
		}
	}
}

func (h *diffHarness) compareReach(owner, req, expr string) {
	h.t.Helper()
	v, err := h.oracle.Network().View()
	if err != nil {
		h.t.Fatalf("oracle view: %v", err)
	}
	oid, ok1 := v.UserID(owner)
	rid, ok2 := v.UserID(req)
	if !ok1 || !ok2 {
		v.Close()
		h.t.Fatalf("reach(%s,%s): oracle does not know the endpoints", owner, req)
	}
	want, werr := v.CheckPath(oid, rid, expr)
	v.Close()
	got, gerr := h.router.Reach(h.ctx, owner, req, expr)
	if (werr == nil) != (gerr == nil) {
		h.t.Fatalf("reach(%s,%s,%s): oracle err=%v router err=%v", owner, req, expr, werr, gerr)
	}
	if werr == nil && want != got {
		h.t.Fatalf("reach(%s,%s,%s): oracle=%v router=%v", owner, req, expr, want, got)
	}
}

func (h *diffHarness) requester(rng *rand.Rand) string {
	if rng.Intn(20) == 0 {
		return fmt.Sprintf("ghost-%d", rng.Intn(3)) // never created anywhere
	}
	return h.users[rng.Intn(len(h.users))]
}

func TestDifferentialShardedVsSingleNode(t *testing.T) {
	kinds := reachac.EngineKinds()
	counts := []int{1, 2, 4}
	steps := 350
	if testing.Short() || raceEnabled {
		kinds = kinds[:2]
		counts = []int{1, 4}
		steps = 150
	}
	for _, kind := range kinds {
		for _, n := range counts {
			t.Run(fmt.Sprintf("%s/shards=%d", kind, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(42 + 1000*int(kind) + n)))
				h := newDiffHarness(t, kind, n, rng)

				for step := 0; step < steps; step++ {
					switch op := rng.Intn(10); {
					case op < 5: // check
						res := h.resources[rng.Intn(len(h.resources))]
						h.compareCheck(res, h.requester(rng))
					case op < 8: // toggle an edge, then spot-check a resource
						i := rng.Intn(len(h.edges))
						if h.edges[i].present {
							h.unrelate(i)
						} else {
							h.relate(i)
						}
						ri := rng.Intn(len(h.resources))
						h.compareCheck(h.resources[ri], h.requester(rng))
					case op < 9: // full audience comparison
						h.compareAudience(h.resources[rng.Intn(len(h.resources))])
					default: // raw reachability point query
						ri := rng.Intn(len(h.resources))
						req := h.users[rng.Intn(len(h.users))]
						h.compareReach(h.owners[ri], req, diffCatalog[ri])
					}
				}

				// Final exhaustive pass: every audience, and every resource
				// against a fixed requester panel.
				for ri, res := range h.resources {
					h.compareAudience(res)
					for u := 0; u < len(h.users); u += 7 {
						h.compareCheck(res, h.users[u])
					}
					h.compareCheck(res, h.owners[ri]) // owner fast-allow parity
				}
			})
		}
	}
}
