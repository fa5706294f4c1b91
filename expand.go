package reachac

import (
	"fmt"
	"sync"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
	"reachac/internal/ring"
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

// ShardState is one product-search state: a node (by name — IDs are not
// comparable across shards), the path step being matched, and the
// canonicalized count of edges consumed within that step (see search.dKey).
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
	// Retired asks the shard to report EVERY state this call retired, not
	// just the boundary exits. The router needs the complete retired set
	// when the sweep builds a cached audience: incremental maintenance
	// reasons from "state absent ⇒ edge irrelevant", which only holds over
	// a complete set. Point queries and uncached sweeps leave it false.
	Retired bool `json:"retired,omitempty"`
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
	// Retired echoes every state retired by this call (locally-explored
	// states AND exits) when the request set Retired.
	Retired []ShardState `json:"retired_states,omitempty"`
}

// pathCache memoizes parsed path expressions: a hot shard re-receives the
// same handful of canonical paths on every expand round. Parsed paths are
// read-only. Bounded because the expressions arrive over the wire — an
// adversarial client must not grow the map without limit; once full, a new
// expression pushes out an arbitrary one, so expressions that never repeat
// cannot keep the ones that do out of the cache.
var (
	pathCacheMu sync.RWMutex
	pathCache   = make(map[string]*pathexpr.Path)
)

const pathCacheMax = 256

func cachedParsePath(expr string) (*pathexpr.Path, error) {
	pathCacheMu.RLock()
	p := pathCache[expr]
	pathCacheMu.RUnlock()
	if p != nil {
		return p, nil
	}
	p, err := pathexpr.Parse(expr)
	if err != nil {
		return nil, err
	}
	pathCacheMu.Lock()
	if len(pathCache) >= pathCacheMax {
		for victim := range pathCache {
			delete(pathCache, victim)
			break
		}
	}
	pathCache[expr] = p
	pathCacheMu.Unlock()
	return p, nil
}

// ringCache memoizes rings by (shards, vnodes): construction is cheap but
// per-request on a hot shard adds up. The parameter space in one deployment
// is a handful of values, so an unbounded map is fine.
var ringCache sync.Map // [2]int -> *ring.Ring

func cachedRing(shards, vnodes int) (*ring.Ring, error) {
	key := [2]int{shards, vnodes}
	if r, ok := ringCache.Load(key); ok {
		return r.(*ring.Ring), nil
	}
	r, err := ring.New(shards, vnodes)
	if err != nil {
		return nil, err
	}
	actual, _ := ringCache.LoadOrStore(key, r)
	return actual.(*ring.Ring), nil
}

// shardStep is a path step compiled against the view's graph, mirroring the
// oracle semantics of internal/search exactly (dKey collapse, close/continue
// windows, predicates evaluated on the node a step ends at).
type shardStep struct {
	label     graph.Label
	labelOK   bool
	dir       pathexpr.Direction
	min, max  int
	unbounded bool
	preds     []pathexpr.Pred
}

// maxShardDepth mirrors search.maxDepthLimit: depths beyond it are rejected
// rather than searched.
const maxShardDepth = 1 << 15

func compileShardSteps(g *graph.Graph, p *pathexpr.Path) ([]shardStep, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	steps := make([]shardStep, len(p.Steps))
	for i, st := range p.Steps {
		if st.MaxDepth >= maxShardDepth || st.MinDepth >= maxShardDepth {
			return nil, fmt.Errorf("reachac: shard expand: step %d depth exceeds limit %d", i+1, maxShardDepth)
		}
		label, ok := g.LookupLabel(st.Label)
		steps[i] = shardStep{
			label:     label,
			labelOK:   ok,
			dir:       st.Dir,
			min:       st.MinDepth,
			max:       st.MaxDepth,
			unbounded: st.Unbounded,
			preds:     st.Preds,
		}
	}
	return steps, nil
}

func (s *shardStep) predsHold(g *graph.Graph, n graph.NodeID) bool {
	for _, p := range s.preds {
		if !p.Eval(g.Node(n).Attrs) {
			return false
		}
	}
	return true
}

func (s *shardStep) dKey(d int) int {
	if s.unbounded && d > s.min {
		return s.min
	}
	return d
}

func (s *shardStep) mayContinue(d int) bool { return s.unbounded || d < s.max }

func (s *shardStep) mayClose(d int) bool { return d >= s.min }

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
	p, err := cachedParsePath(req.Path)
	if err != nil {
		return resp, err
	}
	steps, err := compileShardSteps(g, p)
	if err != nil {
		return resp, err
	}
	// A published snapshot's graph is indexed (see publishLocked) unless it
	// cannot be: it has no relationship types yet, so no step matches a
	// local edge, or too many for a CSR.
	csr := g.CSR()
	if csr == nil && g.NumLabels() > 0 {
		return resp, fmt.Errorf("reachac: shard expand: %d users × %d relationship types exceed the adjacency index", g.NumNodes(), g.NumLabels())
	}
	rg, err := cachedRing(req.Shards, req.VNodes)
	if err != nil {
		return resp, err
	}
	if req.Self < 0 || req.Self >= rg.Shards() {
		return resp, fmt.Errorf("reachac: shard expand: self index %d outside ring of %d", req.Self, rg.Shards())
	}

	// States are keyed by local node ID inside this call — integer map keys
	// hash far cheaper than the wire form's name strings; names only matter
	// at the boundary (exit emission and ring ownership).
	type localState struct {
		node    graph.NodeID
		step, d int32
	}
	seen := make(map[localState]struct{}, len(req.States)*4)
	var queue []localState
	for _, st := range req.States {
		if st.Step < 0 || st.Step >= len(steps) || st.D < 0 {
			return resp, fmt.Errorf("reachac: shard expand: state (%q,%d,%d) outside path of %d steps", st.Name, st.Step, st.D, len(steps))
		}
		id, ok := g.NodeByName(st.Name)
		if !ok {
			// A user this shard has not (yet) replicated: nothing to expand
			// locally. The router fails checks closed on shard errors, not on
			// lag, so an under-approximation here is the safe direction.
			continue
		}
		key := localState{node: id, step: int32(st.Step), d: int32(steps[st.Step].dKey(st.D))}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		queue = append(queue, key)
	}

	accepted := make(map[graph.NodeID]struct{})
	exits := make(map[localState]struct{})
	found := false
	var reqID graph.NodeID
	reqOK := false
	if req.Requester != "" {
		reqID, reqOK = g.NodeByName(req.Requester)
	}

	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		st := &steps[cur.step]
		if !st.labelOK {
			// The step's label never occurs locally: no local edge can match,
			// and any cross-shard continuation already arrived as a state at
			// a node another shard owns (an exit recorded when generated).
			continue
		}

		// expand consumes one edge of the current step from cur.node,
		// mirroring search.Engine.Witness: close the step when its depth
		// window and end-of-step predicates allow (the last step accepting
		// the reached node), and/or continue consuming within the step.
		expand := func(next graph.NodeID) bool {
			d := int(cur.d) + 1
			if st.mayClose(d) && st.predsHold(g, next) {
				if int(cur.step) == len(steps)-1 {
					if _, dup := accepted[next]; !dup {
						accepted[next] = struct{}{}
						if reqOK && next == reqID {
							found = true
							return true
						}
					}
				} else {
					ns := localState{node: next, step: cur.step + 1, d: 0}
					if _, dup := seen[ns]; !dup {
						seen[ns] = struct{}{}
						if rg.Owner(g.Node(next).Name) == req.Self {
							queue = append(queue, ns)
						} else {
							exits[ns] = struct{}{}
						}
					}
				}
			}
			if st.mayContinue(d) {
				ns := localState{node: next, step: cur.step, d: int32(st.dKey(d))}
				if _, dup := seen[ns]; !dup {
					seen[ns] = struct{}{}
					if rg.Owner(g.Node(next).Name) == req.Self {
						queue = append(queue, ns)
					} else {
						exits[ns] = struct{}{}
					}
				}
			}
			return false
		}

		if st.dir == pathexpr.Out || st.dir == pathexpr.Both {
			for _, nb := range csr.OutNeighbors(cur.node, st.label) {
				if expand(graph.NodeID(nb)) {
					break
				}
			}
		}
		if !found && (st.dir == pathexpr.In || st.dir == pathexpr.Both) {
			for _, nb := range csr.InNeighbors(cur.node, st.label) {
				if expand(graph.NodeID(nb)) {
					break
				}
			}
		}
	}

	resp.Found = found
	if len(accepted) > 0 {
		resp.Accepted = make([]string, 0, len(accepted))
		for id := range accepted {
			resp.Accepted = append(resp.Accepted, g.Node(id).Name)
		}
	}
	if len(exits) > 0 {
		resp.Exits = make([]ShardState, 0, len(exits))
		for st := range exits {
			resp.Exits = append(resp.Exits, ShardState{Name: g.Node(st.node).Name, Step: int(st.step), D: int(st.d)})
		}
	}
	if req.Retired {
		resp.Retired = make([]ShardState, 0, len(seen))
		for st := range seen {
			resp.Retired = append(resp.Retired, ShardState{Name: g.Node(st.node).Name, Step: int(st.step), D: int(st.d)})
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
