package reachac

// Property-based tests over randomized social graphs AND randomized path
// expressions: the network and the paper's index libraries must return
// identical decisions, and granted decisions must be witnessed by a
// verifiable path.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"reachac/internal/graph"
	"reachac/internal/joinindex"
	"reachac/internal/pathexpr"
	"reachac/internal/search"
	"reachac/internal/tclosure"
)

var quickLabels = []string{"friend", "colleague", "parent"}

// randGraph builds a random labeled social graph with n nodes, ~m edges and
// sporadic attributes.
func randGraph(rng *rand.Rand, n, m int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		var attrs graph.Attrs
		if rng.Intn(2) == 0 {
			attrs = graph.Attrs{"age": graph.Int(10 + rng.Intn(60))}
		}
		g.MustAddNode(quickName(i), attrs)
	}
	for i := 0; i < m; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v {
			_, _ = g.AddEdge(u, v, quickLabels[rng.Intn(len(quickLabels))])
		}
	}
	return g
}

func quickName(i int) string {
	return "q" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// randPath builds a random valid path expression of 1..3 steps.
func randPath(rng *rand.Rand) *pathexpr.Path {
	steps := 1 + rng.Intn(3)
	p := &pathexpr.Path{}
	for s := 0; s < steps; s++ {
		st := pathexpr.Step{
			Label: quickLabels[rng.Intn(len(quickLabels))],
			Dir:   pathexpr.Direction(rng.Intn(3)),
		}
		lo := 1 + rng.Intn(2)
		switch rng.Intn(4) {
		case 0:
			st.MinDepth, st.MaxDepth = lo, lo
		case 1, 2:
			st.MinDepth, st.MaxDepth = lo, lo+rng.Intn(2)
		case 3:
			st.MinDepth, st.Unbounded = lo, true
		}
		if rng.Intn(4) == 0 {
			ops := []pathexpr.Op{pathexpr.OpGe, pathexpr.OpLt, pathexpr.OpEq, pathexpr.OpNe}
			st.Preds = []pathexpr.Pred{{
				Attr:  "age",
				Op:    ops[rng.Intn(len(ops))],
				Value: graph.Int(10 + rng.Intn(60)),
			}}
		}
		p.Steps = append(p.Steps, st)
	}
	return p
}

func TestQuickEngineAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		g := randGraph(rng, n, n*2+rng.Intn(n*2))

		net := FromGraph(g.Clone())
		closure := tclosure.New(g)
		idx, err := joinindex.Build(g, joinindex.Options{GreedyCover: true})
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		idxPruned, err := joinindex.Build(g, joinindex.Options{})
		if err != nil {
			t.Logf("seed %d: build pruned: %v", seed, err)
			return false
		}

		for trial := 0; trial < 4; trial++ {
			p := randPath(rng)
			if p.Validate() != nil {
				continue
			}
			for probe := 0; probe < 12; probe++ {
				o := graph.NodeID(rng.Intn(n))
				r := graph.NodeID(rng.Intn(n))
				want, err := net.CheckPath(o, r, p.String())
				if err != nil {
					t.Logf("seed %d: network: %v", seed, err)
					return false
				}
				for name, eval := range map[string]interface {
					Reachable(graph.NodeID, graph.NodeID, *pathexpr.Path) (bool, error)
				}{
					"closure": closure, "index-greedy": idx, "index-pruned": idxPruned,
				} {
					got, err := eval.Reachable(o, r, p)
					if err != nil {
						t.Logf("seed %d %s: %v", seed, name, err)
						return false
					}
					if got != want {
						t.Logf("seed %d: %s disagrees on (%d,%d,%s): %v want %v",
							seed, name, o, r, p, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGrantsAreWitnessed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		g := randGraph(rng, n, n*3)
		eng := search.New(g)
		for trial := 0; trial < 6; trial++ {
			p := randPath(rng)
			o := graph.NodeID(rng.Intn(n))
			r := graph.NodeID(rng.Intn(n))
			hops, ok, err := eng.Witness(o, r, p)
			if err != nil {
				return false
			}
			if !ok {
				continue
			}
			if err := search.VerifyWitness(g, o, r, p, hops); err != nil {
				t.Logf("seed %d: unverifiable witness for (%d,%d,%s): %v", seed, o, r, p, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPathRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPath(rng)
		if p.Validate() != nil {
			return true
		}
		s := p.String()
		p2, err := pathexpr.Parse(s)
		if err != nil {
			t.Logf("seed %d: %q does not re-parse: %v", seed, s, err)
			return false
		}
		return p2.String() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMutationConsistency(t *testing.T) {
	// After any sequence of relate/unrelate operations through the facade,
	// the network must agree with both library engines built afresh over
	// its graph.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := New()
		const users = 8
		ids := make([]UserID, users)
		for i := range ids {
			ids[i] = n.MustAddUser(quickName(i))
		}
		type rel struct {
			a, b UserID
			l    string
		}
		var live []rel
		for op := 0; op < 30; op++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				i := rng.Intn(len(live))
				r := live[i]
				if n.Unrelate(r.a, r.b, r.l) != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			a, b := ids[rng.Intn(users)], ids[rng.Intn(users)]
			l := quickLabels[rng.Intn(len(quickLabels))]
			if a == b {
				continue
			}
			if err := n.Relate(a, b, l); err == nil {
				live = append(live, rel{a, b, l})
			}
		}
		p := randPath(rng)
		if p.Validate() != nil {
			return true
		}
		libs := libraryEngines(t, n)
		for probe := 0; probe < 10; probe++ {
			o := ids[rng.Intn(users)]
			r := ids[rng.Intn(users)]
			got, err := n.CheckPath(o, r, p.String())
			if err != nil {
				return false
			}
			for _, lib := range libs {
				want, err := lib.eval.Reachable(o, r, p)
				if err != nil {
					return false
				}
				if got != want {
					t.Logf("seed %d: mutated network disagrees with %s on (%d,%d,%s)", seed, lib.name, o, r, p)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
