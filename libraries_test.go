package reachac

import (
	"testing"

	"reachac/internal/core"
	"reachac/internal/joinindex"
	"reachac/internal/tclosure"
)

// libraryEngine is one of the paper's index libraries behind a decision
// engine of its own.
type libraryEngine struct {
	name   string
	eval   core.Evaluator
	engine *core.Engine
}

// libraryEngines builds decision engines over the paper's two index
// libraries on a clone of n's current graph and policies: the transitive
// closure of §1 (tclosure) and the cluster-based join index of §3
// (joinindex). Neither shares code with the online search that decides
// every check of a Network, so each is an independent oracle for it. The
// caller must not mutate n while this runs.
func libraryEngines(t testing.TB, n *Network) []libraryEngine {
	t.Helper()
	g := n.Graph().Clone()
	idx, err := joinindex.Build(g, joinindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := n.Store().Clone()
	libs := []libraryEngine{{name: "closure", eval: tclosure.New(g)}, {name: "join-index", eval: idx}}
	for i := range libs {
		libs[i].engine = core.NewEngine(store, libs[i].eval, -1)
	}
	return libs
}

// assertLibrariesAgree asserts that n decides each (resource, requester)
// pair as each of libs does: the same effect, granted by the same rule.
func assertLibrariesAgree(t testing.TB, label string, n *Network, libs []libraryEngine, resources []core.ResourceID, requesters []UserID) {
	t.Helper()
	for _, lib := range libs {
		for _, res := range resources {
			for _, u := range requesters {
				got, err := n.CanAccess(string(res), u)
				if err != nil {
					t.Fatalf("%s: CanAccess(%s,%d): %v", label, res, u, err)
				}
				want, err := lib.engine.Decide(res, u)
				if err != nil {
					t.Fatalf("%s: %s Decide(%s,%d): %v", label, lib.name, res, u, err)
				}
				if got.Effect != want.Effect || got.RuleID != want.RuleID {
					t.Fatalf("%s: CanAccess(%s,%d) = (%v,%q), %s (%v,%q)",
						label, res, u, got.Effect, got.RuleID, lib.name, want.Effect, want.RuleID)
				}
			}
		}
	}
}
