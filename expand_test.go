package reachac

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"reachac/internal/ring"
)

// These tests drive View.ShardExpand the way internal/shard's router does —
// a full distributed sweep simulated over one view, where each "shard" call
// only advances states it owns on the ring and everything else round-trips
// as a boundary exit — and assert the result equals the local oracle
// (CheckPath / PathAudience) for every path shape the router routes.

// expandSweep runs the router's sweep discipline against a single view:
// dispatch each frontier slice with the owner's Self index and dedupe exits
// against the global visited set.
func expandSweep(t *testing.T, v *View, shards int, path, seed, requester string) (accepted []string, found bool) {
	t.Helper()
	rg, err := ring.New(shards, ring.DefaultVNodes)
	if err != nil {
		t.Fatalf("ring.New(%d): %v", shards, err)
	}
	start := ShardState{Name: seed, Step: 0, D: 0}
	visited := map[ShardState]struct{}{start: {}}
	frontier := map[int][]ShardState{rg.Owner(seed): {start}}
	accSet := make(map[string]struct{})
	for len(frontier) > 0 && !found {
		next := make(map[int][]ShardState)
		for self, states := range frontier {
			resp, err := v.ShardExpand(ShardExpandRequest{
				Path: path, Shards: shards, Self: self,
				States: states, Requester: requester,
			})
			if err != nil {
				t.Fatalf("ShardExpand(self=%d, path=%s): %v", self, path, err)
			}
			if resp.Found {
				found = true
			}
			for _, name := range resp.Accepted {
				accSet[name] = struct{}{}
			}
			for _, st := range resp.Exits {
				if _, dup := visited[st]; dup {
					continue
				}
				visited[st] = struct{}{}
				next[rg.Owner(st.Name)] = append(next[rg.Owner(st.Name)], st)
			}
		}
		frontier = next
	}
	for name := range accSet {
		accepted = append(accepted, name)
	}
	sort.Strings(accepted)
	return accepted, found
}

func expandTestNetwork(t *testing.T) (*Network, *View, []string) {
	t.Helper()
	n := New()
	t.Cleanup(func() { n.Close() })
	var names []string
	ids := make(map[string]UserID)
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("x%02d", i)
		var attrs []Attr
		if i%3 == 0 {
			dept := "eng"
			if i%6 == 0 {
				dept = "ops"
			}
			attrs = append(attrs, StringAttr("dept", dept), IntAttr("level", i%5))
		}
		ids[name] = n.MustAddUser(name, attrs...)
		names = append(names, name)
	}
	rng := rand.New(rand.NewSource(7))
	labels := []string{"friend", "colleague", "parent"}
	added := make(map[string]struct{})
	for len(added) < 220 {
		from := names[rng.Intn(len(names))]
		to := names[rng.Intn(len(names))]
		label := labels[rng.Intn(len(labels))]
		key := from + "|" + to + "|" + label
		if from == to {
			continue
		}
		if _, dup := added[key]; dup {
			continue
		}
		added[key] = struct{}{}
		if err := n.Relate(ids[from], ids[to], label); err != nil {
			t.Fatalf("Relate(%s): %v", key, err)
		}
	}
	v, err := n.View()
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	t.Cleanup(v.Close)
	return n, v, names
}

var expandCatalog = []string{
	`friend*[1]`,
	`friend+[1,2]`,
	`friend-[1]`,
	`friend+[1,2]/colleague+[1]`,
	`parent+[1]/friend+[1,2]`,
	`friend+[1,2]{dept="eng"}`,
	`friend+[2,*]`,
}

// TestShardExpandSweepMatchesOracle: a simulated multi-shard sweep must
// accept exactly the local engine's path audience, and point queries must
// agree with CheckPath, for every catalog shape and shard count.
func TestShardExpandSweepMatchesOracle(t *testing.T) {
	_, v, names := expandTestNetwork(t)
	for _, shards := range []int{1, 2, 3} {
		for _, path := range expandCatalog {
			seed := names[3]
			seedID, _ := v.UserID(seed)
			wantIDs, err := v.PathAudience(seedID, path)
			if err != nil {
				t.Fatalf("PathAudience(%s): %v", path, err)
			}
			want := make([]string, 0, len(wantIDs))
			for _, id := range wantIDs {
				name, ok := v.UserName(id)
				if !ok {
					t.Fatalf("no name for id %d", id)
				}
				want = append(want, name)
			}
			sort.Strings(want)
			got, _ := expandSweep(t, v, shards, path, seed, "")
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("shards=%d path=%s: sweep accepted %v, oracle audience %v", shards, path, got, want)
			}

			for _, req := range []string{names[7], names[20], names[33]} {
				reqID, _ := v.UserID(req)
				want, err := v.CheckPath(seedID, reqID, path)
				if err != nil {
					t.Fatalf("CheckPath(%s): %v", path, err)
				}
				_, found := expandSweep(t, v, shards, path, seed, req)
				if found != want {
					t.Fatalf("shards=%d path=%s req=%s: sweep found=%v oracle=%v", shards, path, req, found, want)
				}
			}
		}
	}
}

// TestShardExpandResolve: users are replicated everywhere, so any shard
// reports which names do not exist; resolve-only requests skip the search.
func TestShardExpandResolve(t *testing.T) {
	_, v, names := expandTestNetwork(t)
	resp, err := v.ShardExpand(ShardExpandRequest{
		Path: `friend*[1]`, Shards: 2, Self: 0,
		Resolve: []string{names[0], "nobody", names[1], "ghost"},
	})
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	sort.Strings(resp.Missing)
	if fmt.Sprint(resp.Missing) != fmt.Sprint([]string{"ghost", "nobody"}) {
		t.Fatalf("missing = %v, want [ghost nobody]", resp.Missing)
	}
	if resp.Accepted != nil || resp.Exits != nil || resp.Found {
		t.Fatalf("resolve-only request ran a search: %+v", resp)
	}
}

// TestShardExpandUnknownStatesSkipped: a state naming a user this shard has
// not replicated yet expands to nothing — under-approximation is the safe
// direction because the router fails checks closed on errors, not on lag.
func TestShardExpandUnknownStatesSkipped(t *testing.T) {
	_, v, _ := expandTestNetwork(t)
	resp, err := v.ShardExpand(ShardExpandRequest{
		Path: `friend+[1,2]`, Shards: 1, Self: 0,
		States: []ShardState{{Name: "never-added", Step: 0, D: 0}},
	})
	if err != nil {
		t.Fatalf("unknown state: %v", err)
	}
	if len(resp.Accepted) != 0 || len(resp.Exits) != 0 {
		t.Fatalf("unknown state expanded: %+v", resp)
	}
}

// TestShardExpandAbsentLabel: a label with no local edges matches nothing
// locally without being an error — absence is not global unreachability.
func TestShardExpandAbsentLabel(t *testing.T) {
	_, v, names := expandTestNetwork(t)
	resp, err := v.ShardExpand(ShardExpandRequest{
		Path: `nosuchlabel+[1,3]`, Shards: 1, Self: 0,
		States: []ShardState{{Name: names[0], Step: 0, D: 0}},
	})
	if err != nil {
		t.Fatalf("absent label: %v", err)
	}
	if len(resp.Accepted) != 0 || len(resp.Exits) != 0 {
		t.Fatalf("absent label expanded: %+v", resp)
	}
}

// TestShardExpandRequestValidation: every malformed request is refused
// before it is searched — among them a seed depth outside its step's window,
// which in the flat layout would mark a bit of another step, and ring
// parameters that would make the shard allocate without bound.
func TestShardExpandRequestValidation(t *testing.T) {
	_, v, names := expandTestNetwork(t)
	st := []ShardState{{Name: names[0], Step: 0, D: 0}}
	cases := []struct {
		name string
		req  ShardExpandRequest
	}{
		{"bad path", ShardExpandRequest{Path: `???`, Shards: 2, Self: 0, States: st}},
		{"zero shards", ShardExpandRequest{Path: `friend*[1]`, Shards: 0, Self: 0, States: st}},
		{"self out of range", ShardExpandRequest{Path: `friend*[1]`, Shards: 2, Self: 7, States: st}},
		{"negative self", ShardExpandRequest{Path: `friend*[1]`, Shards: 2, Self: -1, States: st}},
		{"step out of range", ShardExpandRequest{Path: `friend*[1]`, Shards: 2, Self: 0,
			States: []ShardState{{Name: names[0], Step: 4, D: 0}}}},
		{"negative d", ShardExpandRequest{Path: `friend*[1]`, Shards: 2, Self: 0,
			States: []ShardState{{Name: names[0], Step: 0, D: -2}}}},
		{"bounded d at max", ShardExpandRequest{Path: `friend+[1,2]`, Shards: 1, Self: 0,
			States: []ShardState{{Name: names[0], Step: 0, D: 2}}}},
		{"bounded d past max", ShardExpandRequest{Path: `friend+[1,2]`, Shards: 1, Self: 0,
			States: []ShardState{{Name: names[0], Step: 0, D: 5}}}},
		{"bad d of an unknown user", ShardExpandRequest{Path: `friend+[1,2]`, Shards: 1, Self: 0,
			States: []ShardState{{Name: "never-added", Step: 0, D: 5}}}},
		{"depth beyond limit", ShardExpandRequest{Path: `friend+[1,40000]`, Shards: 2, Self: 0, States: st}},
		{"huge ring", ShardExpandRequest{Path: `friend*[1]`, Shards: 100_000_000, Self: 0, States: st}},
		{"huge vnodes", ShardExpandRequest{Path: `friend*[1]`, Shards: 2, VNodes: 1 << 40, Self: 0, States: st}},
	}
	for _, tc := range cases {
		if _, err := v.ShardExpand(tc.req); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}

	// An unbounded step's depths past its minimum are one canonical depth:
	// accepted, and expanded exactly as the canonical depth is, exits
	// included.
	rg, err := ring.New(2, ring.DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	expand := func(d int) ShardExpandResponse {
		t.Helper()
		resp, err := v.ShardExpand(ShardExpandRequest{Path: `friend+[2,*]`, Shards: 2, Self: rg.Owner(names[3]),
			States: []ShardState{{Name: names[3], Step: 0, D: d}}})
		if err != nil {
			t.Fatalf("seeded at d %d: %v", d, err)
		}
		sort.Strings(resp.Accepted)
		sort.Slice(resp.Exits, func(i, j int) bool { return fmt.Sprint(resp.Exits[i]) < fmt.Sprint(resp.Exits[j]) })
		return resp
	}
	resp, want := expand(9), expand(2)
	if fmt.Sprint(resp) != fmt.Sprint(want) || len(resp.Accepted)+len(resp.Exits) == 0 {
		t.Fatalf("seeded at d 9, answered %+v; at d 2, %+v", resp, want)
	}
}

// TestCachedRing: a shard keeps the ring it last built, so repeat lookups
// hit, and invalid parameters never displace it.
func TestCachedRing(t *testing.T) {
	r1, err := cachedRing(5, 0)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	r2, err := cachedRing(5, 0)
	if err != nil || r1 != r2 {
		t.Fatalf("second ring lookup did not hit the cache")
	}
	if _, err := cachedRing(0, 0); err == nil {
		t.Fatalf("zero-shard ring constructed")
	}
	if r3, err := cachedRing(5, 0); err != nil || r3 != r1 {
		t.Fatalf("an invalid lookup displaced the cached ring")
	}
}

// TestPolicyDump: the name-keyed policy export the router bootstraps from.
func TestPolicyDump(t *testing.T) {
	n := New()
	defer n.Close()
	owner := n.MustAddUser("powner")
	n.MustAddUser("pother")
	if _, err := n.Share("doc-a", owner, `friend+[1,2]`, `colleague*[1]`); err != nil {
		t.Fatalf("share doc-a: %v", err)
	}
	if _, err := n.Share("doc-b", owner, `parent-[1]`); err != nil {
		t.Fatalf("share doc-b: %v", err)
	}
	v, err := n.View()
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	defer v.Close()
	dump := v.PolicyDump()
	if len(dump) != 2 {
		t.Fatalf("dump has %d resources, want 2: %+v", len(dump), dump)
	}
	byRes := make(map[string]ResourcePolicy)
	for _, rp := range dump {
		byRes[rp.Resource] = rp
	}
	a, ok := byRes["doc-a"]
	if !ok || a.Owner != "powner" {
		t.Fatalf("doc-a dump wrong: %+v", a)
	}
	if len(a.Rules) != 1 || len(a.Rules[0].Paths) != 2 {
		t.Fatalf("doc-a rules wrong: %+v", a.Rules)
	}
	sort.Strings(a.Rules[0].Paths)
	if a.Rules[0].Paths[0] != `colleague*[1]` || a.Rules[0].Paths[1] != `friend+[1,2]` {
		t.Fatalf("doc-a paths did not round-trip canonically: %v", a.Rules[0].Paths)
	}
	if b := byRes["doc-b"]; b.Owner != "powner" || len(b.Rules) != 1 || b.Rules[0].Paths[0] != `parent-[1]` {
		t.Fatalf("doc-b dump wrong: %+v", byRes["doc-b"])
	}
}
