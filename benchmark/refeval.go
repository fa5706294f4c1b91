package main

import (
	"context"
	"fmt"

	"reachac"
	"reachac/internal/pathexpr"
)

// refGraph is the reference evaluator's copy of a state's relationships:
// plain adjacency lists exported through View.Relationships. Deciding on it
// shares nothing with the system under test but the path parser — no CSR, no
// planner, no cache.
type refGraph struct {
	out, in [][]refEdge
}

type refEdge struct {
	peer  uint32
	label string
}

func newRefGraph(v *reachac.View) *refGraph {
	n := v.NumUsers()
	g := &refGraph{out: make([][]refEdge, n), in: make([][]refEdge, n)}
	for from := 0; from < n; from++ {
		v.Relationships(reachac.UserID(from), func(to reachac.UserID, relType string) bool {
			g.out[from] = append(g.out[from], refEdge{uint32(to), relType})
			g.in[to] = append(g.in[to], refEdge{uint32(from), relType})
			return true
		})
	}
	return g
}

// reachable decides whether a walk matching p leads from owner to requester:
// breadth-first over (node, step, edges consumed in the step). A step may
// close once its depth is in range, and the last step must close on the
// requester. Attribute predicates are not supported (no workload uses them).
func (g *refGraph) reachable(owner, requester uint32, p *pathexpr.Path) (bool, error) {
	type state struct {
		node    uint32
		step, d int
	}
	seen := map[state]bool{{owner, 0, 0}: true}
	frontier := []state{{owner, 0, 0}}
	push := func(s state) {
		if !seen[s] {
			seen[s] = true
			frontier = append(frontier, s)
		}
	}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		st := p.Steps[cur.step]
		if len(st.Preds) > 0 {
			return false, fmt.Errorf("reference evaluator: predicates in %s are not supported", p)
		}
		visit := func(edges []refEdge) bool {
			for _, e := range edges {
				if e.label != st.Label {
					continue
				}
				d := cur.d + 1
				if d >= st.MinDepth {
					if cur.step == len(p.Steps)-1 {
						if e.peer == requester {
							return true
						}
					} else {
						push(state{e.peer, cur.step + 1, 0})
					}
				}
				if st.Unbounded {
					push(state{e.peer, cur.step, min(d, st.MinDepth)})
				} else if d < st.MaxDepth {
					push(state{e.peer, cur.step, d})
				}
			}
			return false
		}
		if st.Dir != pathexpr.In && visit(g.out[cur.node]) {
			return true, nil
		}
		if st.Dir != pathexpr.Out && visit(g.in[cur.node]) {
			return true, nil
		}
	}
	return false, nil
}

// refPolicy is one resource's owner and rules; a rule holds when all of its
// conditions do, and any rule that holds grants access.
type refPolicy struct {
	owner uint32
	rules [][]*pathexpr.Path
}

func refPolicies(v *reachac.View) (map[string]refPolicy, error) {
	out := make(map[string]refPolicy)
	for _, rp := range v.PolicyDump() {
		owner, ok := v.UserID(rp.Owner)
		if !ok {
			return nil, fmt.Errorf("policy of %s names unknown owner %s", rp.Resource, rp.Owner)
		}
		pol := refPolicy{owner: uint32(owner)}
		for _, r := range rp.Rules {
			var conds []*pathexpr.Path
			for _, s := range r.Paths {
				p, err := pathexpr.Parse(s)
				if err != nil {
					return nil, err
				}
				conds = append(conds, p)
			}
			pol.rules = append(pol.rules, conds)
		}
		out[rp.Resource] = pol
	}
	return out, nil
}

func (g *refGraph) decide(pols map[string]refPolicy, resource string, requester uint32) (bool, error) {
	pol, ok := pols[resource]
	if !ok {
		return false, nil
	}
	if pol.owner == requester {
		return true, nil
	}
	for _, conds := range pol.rules {
		holds := true
		for _, p := range conds {
			ok, err := g.reachable(pol.owner, requester, p)
			if err != nil {
				return false, err
			}
			if !ok {
				holds = false
				break
			}
		}
		if holds {
			return true, nil
		}
	}
	return false, nil
}

// verifyPairs is how many (resource, requester) pairs a run re-decides.
const verifyPairs = 2000

// verifyDecisions re-decides a seeded sample of the workload's own check
// distribution on the quiesced final state, asking the system the way the
// workload does (over HTTP for the HTTP workloads), and reports every pair
// on which it and the reference evaluator disagree.
func verifyDecisions(e *env) (checked, allows int, mismatches []string, err error) {
	v, err := e.net.View()
	if err != nil {
		return 0, 0, nil, err
	}
	defer v.Close()
	g := newRefGraph(v)
	pols, err := refPolicies(v)
	if err != nil {
		return 0, 0, nil, err
	}
	checks := *e.w
	checks.mix = mix{check: 1}
	gen := newGenerator(&checks, e.adj, e.specs, e.seed+3, 0, 1)
	ctx := context.Background()
	for ; checked < verifyPairs; checked++ {
		o := gen.next()
		res := e.specs[o.res].name
		want, err := g.decide(pols, res, o.requester)
		if err != nil {
			return checked, allows, mismatches, err
		}
		var got bool
		if e.cli != nil {
			d, err := e.cli.Check(ctx, res, e.names[o.requester])
			if err != nil {
				return checked, allows, mismatches, err
			}
			got = d.Effect == "allow"
		} else {
			d, err := e.net.CanAccess(res, reachac.UserID(o.requester))
			if err != nil {
				return checked, allows, mismatches, err
			}
			got = d.Effect == reachac.Allow
		}
		if want {
			allows++
		}
		if got != want {
			mismatches = append(mismatches, fmt.Sprintf("resource %s requester %d: system allow=%v, reference allow=%v", res, o.requester, got, want))
		}
	}
	return checked, allows, mismatches, nil
}

// verifyReopen closes the HTTP workload's network, reopens its directory and
// reports every acknowledged, still-live edge or rule that recovery lost.
func verifyReopen(e *env) (lost []string, err error) {
	if err := e.stopServing(); err != nil {
		return nil, fmt.Errorf("shutting the server down: %w", err)
	}
	e.srv, e.net = nil, nil // the server's shutdown closed the network
	n, err := reachac.Open(e.dir)
	if err != nil {
		return nil, fmt.Errorf("reopening %s: %w", e.dir, err)
	}
	defer n.Close()
	v, err := n.View()
	if err != nil {
		return nil, err
	}
	defer v.Close()
	rules := make(map[string]bool)
	for _, rp := range v.PolicyDump() {
		for _, r := range rp.Rules {
			rules[rp.Resource+"\x00"+r.ID] = true
		}
	}
	for _, gen := range e.gens {
		for _, ed := range gen.edges {
			if !v.HasRelationship(reachac.UserID(ed.from), reachac.UserID(ed.to), ed.label) {
				lost = append(lost, fmt.Sprintf("edge %d -%s-> %d", ed.from, ed.label, ed.to))
			}
		}
		for _, r := range gen.rules {
			if !rules[e.specs[r.res].name+"\x00"+r.id] {
				lost = append(lost, fmt.Sprintf("rule %s of %s", r.id, e.specs[r.res].name))
			}
		}
	}
	return lost, nil
}
