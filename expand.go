package reachac

import (
	"fmt"
	"sync/atomic"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
	"reachac/internal/ring"
	"reachac/internal/search"
)

// This file is the shard-side half of the distributed reachability search
// (see internal/shard). The router runs the product-BFS of a path expression
// over the PARTITIONED graph: users are replicated to every shard, but each
// shard stores only the edges incident to the nodes it owns on the
// consistent-hash ring. One ShardExpand call advances the search over one
// shard's local subgraph: it exhausts every state whose node the shard owns
// (local multi-hop progress is free), collects accepted requesters, and
// returns the boundary frontier — states that crossed onto nodes another
// shard owns, whose complete adjacency only that owner has. The router
// re-dispatches the boundary frontier to the owning shards until it drains,
// deduplicating states globally; that exit set IS the dynamic boundary
// summary that keeps multi-hop reachability across the partition cut exact.
//
// The call runs no search of its own: it is one search.Engine.Expand on the
// snapshot's engine and plan, seeded with the request's states, whose
// foreign test is ring ownership. A shard therefore searches with the same
// kernels and the same step rules as a single node.

// ShardState is one product-search state: a node (by name — IDs are not
// comparable across shards), the path step being matched, and the
// canonicalized count of edges consumed within that step (see
// pathexpr.Step.DKey).
type ShardState struct {
	Name string `json:"name"`
	Step int    `json:"step"`
	D    int    `json:"d"`
}

// ShardExpandRequest asks one shard to advance the distributed search.
type ShardExpandRequest struct {
	// Path is the canonical path expression being matched.
	Path string `json:"path"`
	// Shards/VNodes/Self are the ring parameters: total shard count, virtual
	// nodes per shard (0 = ring.DefaultVNodes) and this backend's index.
	// They let a stateless shard classify which generated states it owns.
	Shards int `json:"shards"`
	VNodes int `json:"vnodes,omitempty"`
	Self   int `json:"self"`
	// States is the frontier slice this shard owns.
	States []ShardState `json:"states,omitempty"`
	// Requester, when set, turns the sweep into a point query: the search
	// stops as soon as that name is accepted (Found in the response).
	Requester string `json:"requester,omitempty"`
	// Resolve asks the shard to report which of these user names do not
	// exist (users are replicated everywhere, so any shard can answer).
	Resolve []string `json:"resolve,omitempty"`
}

// ShardExpandResponse is one shard's contribution to the search round.
type ShardExpandResponse struct {
	// Accepted lists nodes that closed the final step (audience members).
	Accepted []string `json:"accepted,omitempty"`
	// Exits is the boundary frontier: states at nodes other shards own,
	// which the router must re-dispatch. Depth counters are canonicalized.
	Exits []ShardState `json:"exits,omitempty"`
	// Found reports the point query's Requester was accepted.
	Found bool `json:"found,omitempty"`
	// Missing lists the Resolve names this shard does not know.
	Missing []string `json:"missing,omitempty"`
}

// lastRing is the ring of the most recent expand call. A deployment uses one
// (shards, vnodes) pair, so one entry always hits, and parameters that
// arrive over the wire can displace it but never accumulate.
var lastRing atomic.Pointer[ringEntry]

type ringEntry struct {
	shards, vnodes int
	r              *ring.Ring
}

func cachedRing(shards, vnodes int) (*ring.Ring, error) {
	if e := lastRing.Load(); e != nil && e.shards == shards && e.vnodes == vnodes {
		return e.r, nil
	}
	r, err := ring.New(shards, vnodes)
	if err != nil {
		return nil, err
	}
	lastRing.Store(&ringEntry{shards: shards, vnodes: vnodes, r: r})
	return r, nil
}

// ShardExpand advances a distributed reachability search over the view's
// local subgraph; see the file comment for the protocol. A label absent from
// THIS shard's graph simply matches no local edges — absence is not global
// unreachability, another shard may hold edges under it.
func (v *View) ShardExpand(req ShardExpandRequest) (ShardExpandResponse, error) {
	var resp ShardExpandResponse
	g := v.s.g
	for _, name := range req.Resolve {
		if _, ok := g.NodeByName(name); !ok {
			resp.Missing = append(resp.Missing, name)
		}
	}
	if len(req.States) == 0 {
		return resp, nil
	}
	p, err := pathexpr.Parse(req.Path)
	if err != nil {
		return resp, err
	}
	e := v.s.search
	pl, err := e.Plan(p)
	if err != nil {
		return resp, err
	}
	rg, err := cachedRing(req.Shards, req.VNodes)
	if err != nil {
		return resp, err
	}
	if req.Self < 0 || req.Self >= rg.Shards() {
		return resp, fmt.Errorf("reachac: shard expand: self index %d outside ring of %d", req.Self, rg.Shards())
	}
	seeds := make([]search.State, 0, len(req.States))
	for _, st := range req.States {
		if st.Step < 0 || st.Step >= len(p.Steps) || st.D < 0 || p.Steps[st.Step].DKey(st.D) >= p.Steps[st.Step].Depths() {
			return resp, fmt.Errorf("reachac: shard expand: state (%q,%d,%d) outside the steps and depths of %s", st.Name, st.Step, st.D, p)
		}
		id, ok := g.NodeByName(st.Name)
		if !ok {
			// A user this shard has not (yet) replicated: nothing to expand
			// locally. The router fails checks closed on shard errors, not on
			// lag, so an under-approximation here is the safe direction.
			continue
		}
		seeds = append(seeds, search.State{Node: id, Step: st.Step, D: p.Steps[st.Step].DKey(st.D)})
	}
	target := graph.InvalidNode
	if req.Requester != "" {
		if id, ok := g.NodeByName(req.Requester); ok {
			target = id
		}
	}
	foreign := func(n graph.NodeID) bool { return rg.Owner(g.Node(n).Name) != req.Self }
	x := e.Expand(pl, seeds, target, foreign)
	resp.Found = x.Found
	if len(x.Members) > 0 {
		resp.Accepted = make([]string, len(x.Members))
		for i, id := range x.Members {
			resp.Accepted[i] = g.Node(id).Name
		}
	}
	if len(x.Exits) > 0 {
		resp.Exits = make([]ShardState, len(x.Exits))
		for i, st := range x.Exits {
			resp.Exits[i] = ShardState{Name: g.Node(st.Node).Name, Step: st.Step, D: st.D}
		}
	}
	return resp, nil
}

// PolicyRule is one access rule in name-keyed form (see PolicyDump).
type PolicyRule struct {
	ID string `json:"id"`
	// Paths are the rule's conditions in canonical syntax (all must hold).
	Paths []string `json:"paths"`
}

// ResourcePolicy is one resource's registration and rules in name-keyed form.
type ResourcePolicy struct {
	Resource string       `json:"resource"`
	Owner    string       `json:"owner"`
	Rules    []PolicyRule `json:"rules,omitempty"`
}

// PolicyDump exports the view's policy store keyed by user NAME rather than
// node ID. The SavePolicies serialization embeds shard-local numeric IDs,
// which mean nothing to another process; the shard router rebuilds its
// routing cache from this form at startup.
func (v *View) PolicyDump() []ResourcePolicy {
	store := v.s.store
	resources := store.Resources()
	out := make([]ResourcePolicy, 0, len(resources))
	for _, res := range resources {
		ownerID, ok := store.Owner(res)
		if !ok {
			continue
		}
		ownerName, ok := v.UserName(ownerID)
		if !ok {
			continue
		}
		rp := ResourcePolicy{Resource: string(res), Owner: ownerName}
		for _, r := range store.RulesFor(res) {
			pr := PolicyRule{ID: r.ID, Paths: make([]string, len(r.Conditions))}
			for i, c := range r.Conditions {
				pr.Paths[i] = c.Path.String()
			}
			rp.Rules = append(rp.Rules, pr)
		}
		out = append(out, rp)
	}
	return out
}
