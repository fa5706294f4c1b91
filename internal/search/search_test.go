package search

import (
	"slices"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/paperfix"
	"reachac/internal/pathexpr"
)

func node(t *testing.T, g *graph.Graph, name string) graph.NodeID {
	t.Helper()
	id, ok := g.NodeByName(name)
	if !ok {
		t.Fatalf("node %q missing", name)
	}
	return id
}

func reach(t *testing.T, e *Engine, g *graph.Graph, owner, requester, expr string) bool {
	t.Helper()
	ok, err := e.Reachable(node(t, g, owner), node(t, g, requester), pathexpr.MustParse(expr))
	if err != nil {
		t.Fatalf("Reachable(%s,%s,%s): %v", owner, requester, expr, err)
	}
	return ok
}

func TestQ1OnPaperGraph(t *testing.T) {
	g := paperfix.Graph()
	e := New(g)
	alice := node(t, g, paperfix.Alice)
	granted := map[string]bool{}
	for _, name := range paperfix.Names {
		if name == paperfix.Alice {
			continue
		}
		ok, err := e.Reachable(alice, node(t, g, name), paperfix.Q1())
		if err != nil {
			t.Fatal(err)
		}
		granted[name] = ok
	}
	for _, name := range paperfix.Names {
		if name == paperfix.Alice {
			continue
		}
		want := false
		for _, w := range paperfix.Q1Grantees {
			if w == name {
				want = true
			}
		}
		if granted[name] != want {
			t.Errorf("Q1 grant for %s = %v, want %v", name, granted[name], want)
		}
	}
}

func TestPaperFriendParentFriend(t *testing.T) {
	g := paperfix.Graph()
	e := New(g)
	// §3.4: Alice shares with the friends of her friends' parents; George is
	// granted via Alice -> Colin -> Fred -> George.
	if !reach(t, e, g, paperfix.Alice, paperfix.George, "friend+[1]/parent+[1]/friend+[1]") {
		t.Fatal("George denied")
	}
	// No one else qualifies.
	for _, name := range []string{paperfix.Bill, paperfix.Colin, paperfix.David, paperfix.Elena, paperfix.Fred} {
		if reach(t, e, g, paperfix.Alice, name, "friend+[1]/parent+[1]/friend+[1]") {
			t.Errorf("%s wrongly granted", name)
		}
	}
}

func TestWitnessMatchesPaperPath(t *testing.T) {
	g := paperfix.Graph()
	e := New(g)
	alice := node(t, g, paperfix.Alice)
	george := node(t, g, paperfix.George)
	p := paperfix.QFriendParentFriend()
	hops, ok, err := e.Witness(alice, george, p)
	if err != nil || !ok {
		t.Fatalf("Witness: %v ok=%v", err, ok)
	}
	if len(hops) != 3 {
		t.Fatalf("witness length %d, want 3", len(hops))
	}
	if err := VerifyWitness(g, alice, george, p, hops); err != nil {
		t.Fatalf("VerifyWitness: %v", err)
	}
	// The unique matching path is Alice -> Colin -> Fred -> George.
	names := []string{paperfix.Colin, paperfix.Fred, paperfix.George}
	for i, h := range hops {
		if got := g.Node(h.Edge.To).Name; got != names[i] {
			t.Errorf("hop %d lands on %s, want %s", i, got, names[i])
		}
		if !h.Forward {
			t.Errorf("hop %d not forward", i)
		}
	}
}

func TestIncomingDirection(t *testing.T) {
	g := paperfix.Graph()
	e := New(g)
	// §2: David shares with those who consider him a friend: Elena, Colin.
	for _, name := range paperfix.Names {
		if name == paperfix.David {
			continue
		}
		want := name == paperfix.Elena || name == paperfix.Colin
		if got := reach(t, e, g, paperfix.David, name, "friend-[1]"); got != want {
			t.Errorf("friend-[1] from David to %s = %v, want %v", name, got, want)
		}
	}
}

func TestBothDirection(t *testing.T) {
	g := paperfix.Graph()
	e := New(g)
	// friend*[1] from David reaches both who he befriends (nobody via
	// friend) and who befriends him (Colin, Elena).
	if !reach(t, e, g, paperfix.David, paperfix.Colin, "friend*[1]") {
		t.Fatal("Colin not reached with *")
	}
	if reach(t, e, g, paperfix.David, paperfix.Colin, "friend+[1]") {
		t.Fatal("Colin reached with + (edge is Colin->David)")
	}
}

func TestFriendDepth3Chain(t *testing.T) {
	g := paperfix.Graph()
	e := New(g)
	// §2: from Alice to George there is a friend path of length 3
	// (Alice-Bill-Elena-George).
	if !reach(t, e, g, paperfix.Alice, paperfix.George, "friend+[3]") {
		t.Fatal("depth-3 friend chain not found")
	}
	// But not of length exactly 1.
	if reach(t, e, g, paperfix.Alice, paperfix.George, "friend+[1]") {
		t.Fatal("phantom length-1 chain")
	}
	// [1,3] also matches.
	if !reach(t, e, g, paperfix.Alice, paperfix.George, "friend+[1,3]") {
		t.Fatal("[1,3] did not match")
	}
}

func TestUnboundedDepth(t *testing.T) {
	g := graph.New()
	n := make([]graph.NodeID, 6)
	for i := range n {
		n[i] = g.MustAddNode(string(rune('a'+i)), nil)
	}
	for i := 0; i+1 < len(n); i++ {
		g.MustAddEdge(n[i], n[i+1], "friend")
	}
	e := New(g)
	if !reach(t, e, g, "a", "f", "friend+[1,*]") {
		t.Fatal("unbounded missed 5-chain")
	}
	if !reach(t, e, g, "a", "f", "friend+[5,*]") {
		t.Fatal("unbounded min=5 missed 5-chain")
	}
	if reach(t, e, g, "a", "f", "friend+[6,*]") {
		t.Fatal("unbounded min=6 matched 5-chain")
	}
}

func TestUnboundedWithCycle(t *testing.T) {
	g := graph.New()
	a := g.MustAddNode("a", nil)
	b := g.MustAddNode("b", nil)
	c := g.MustAddNode("c", nil)
	g.MustAddEdge(a, b, "friend")
	g.MustAddEdge(b, a, "friend")
	g.MustAddEdge(b, c, "colleague")
	e := New(g)
	// The cycle must not hang; min depth 4 can be met by looping.
	if !reach(t, e, g, "a", "c", "friend+[4,*]/colleague+[1]") {
		t.Fatal("cycle-assisted unbounded match failed")
	}
}

func TestSelfRequesterViaCycle(t *testing.T) {
	g := graph.New()
	a := g.MustAddNode("a", nil)
	b := g.MustAddNode("b", nil)
	g.MustAddEdge(a, b, "friend")
	g.MustAddEdge(b, a, "friend")
	e := New(g)
	// owner == requester matched through a genuine 2-cycle.
	if !reach(t, e, g, "a", "a", "friend+[2]") {
		t.Fatal("owner-to-self cycle not matched")
	}
	if reach(t, e, g, "a", "a", "friend+[1]") {
		t.Fatal("owner-to-self granted without a matching path")
	}
}

func TestAttributePredicates(t *testing.T) {
	g := graph.New()
	a := g.MustAddNode("a", nil)
	b := g.MustAddNode("b", graph.Attrs{"age": graph.Int(15)})
	c := g.MustAddNode("c", graph.Attrs{"age": graph.Int(30)})
	g.MustAddEdge(a, b, "friend")
	g.MustAddEdge(a, c, "friend")
	e := New(g)
	if reach(t, e, g, "a", "b", "friend+[1]{age>=18}") {
		t.Fatal("minor granted")
	}
	if !reach(t, e, g, "a", "c", "friend+[1]{age>=18}") {
		t.Fatal("adult denied")
	}
}

func TestPredicatesApplyAtStepEndOnly(t *testing.T) {
	// a -> b(age 15) -> c(age 30): friend+[2]{age>=18} must match a..c even
	// though the intermediate b fails the predicate.
	g := graph.New()
	a := g.MustAddNode("a", nil)
	b := g.MustAddNode("b", graph.Attrs{"age": graph.Int(15)})
	c := g.MustAddNode("c", graph.Attrs{"age": graph.Int(30)})
	g.MustAddEdge(a, b, "friend")
	g.MustAddEdge(b, c, "friend")
	e := New(g)
	if !reach(t, e, g, "a", "c", "friend+[2]{age>=18}") {
		t.Fatal("intermediate node predicate wrongly enforced")
	}
	// But with depth [1,2], closing at b is rejected while c still matches.
	if !reach(t, e, g, "a", "c", "friend+[1,2]{age>=18}") {
		t.Fatal("depth [1,2] match failed")
	}
	if reach(t, e, g, "a", "b", "friend+[1,2]{age>=18}") {
		t.Fatal("b granted despite failing predicate")
	}
}

func TestMissingLabelIsDenyNotError(t *testing.T) {
	g := paperfix.Graph()
	e := New(g)
	if reach(t, e, g, paperfix.Alice, paperfix.Bill, "enemy+[1]") {
		t.Fatal("unknown label matched")
	}
}

func TestInvalidNodesError(t *testing.T) {
	g := paperfix.Graph()
	e := New(g)
	if _, err := e.Reachable(999, 0, paperfix.Q1()); err == nil {
		t.Fatal("invalid owner accepted")
	}
}

func TestInvalidPathError(t *testing.T) {
	g := paperfix.Graph()
	e := New(g)
	bad := &pathexpr.Path{} // empty
	if _, err := e.Reachable(0, 1, bad); err == nil {
		t.Fatal("invalid path accepted")
	}
}

func TestWitnessAlwaysVerifies(t *testing.T) {
	g := paperfix.Graph()
	e := New(g)
	queries := []string{
		"friend+[1,2]/colleague+[1]",
		"friend+[1]/parent+[1]/friend+[1]",
		"friend-[1]",
		"friend*[1,3]",
		"friend+[3]",
		"friend+[1,*]",
	}
	found := 0
	for _, q := range queries {
		p := pathexpr.MustParse(q)
		for _, o := range paperfix.Names {
			for _, r := range paperfix.Names {
				oid, rid := node(t, g, o), node(t, g, r)
				hops, ok, err := e.Witness(oid, rid, p)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
				found++
				if err := VerifyWitness(g, oid, rid, p, hops); err != nil {
					t.Fatalf("witness for (%s,%s,%s) invalid: %v", o, r, q, err)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no witnesses found at all")
	}
}

func TestVerifyWitnessRejectsBad(t *testing.T) {
	g := paperfix.Graph()
	e := New(g)
	alice := node(t, g, paperfix.Alice)
	george := node(t, g, paperfix.George)
	p := paperfix.QFriendParentFriend()
	hops, ok, _ := e.Witness(alice, george, p)
	if !ok {
		t.Fatal("no witness")
	}
	// Wrong requester.
	if err := VerifyWitness(g, alice, node(t, g, paperfix.Bill), p, hops); err == nil {
		t.Fatal("wrong requester accepted")
	}
	// Wrong owner.
	if err := VerifyWitness(g, node(t, g, paperfix.Bill), george, p, hops); err == nil {
		t.Fatal("wrong owner accepted")
	}
	// Truncated witness.
	if err := VerifyWitness(g, alice, george, p, hops[:2]); err == nil {
		t.Fatal("truncated witness accepted")
	}
	// Wrong pattern.
	if err := VerifyWitness(g, alice, george, pathexpr.MustParse("friend+[3]"), hops); err == nil {
		t.Fatal("mismatched pattern accepted")
	}
}

// TestUnindexedAndLabelFreeGraphsAgreeWithWitness covers the two ways an
// engine meets a graph without a CSR. One that was never indexed is indexed
// by the engine's first query and searched flat; one with no relationship
// types cannot be indexed at all and matches nothing. Either way every
// decision equals the map-based Witness search over the edge lists.
func TestUnindexedAndLabelFreeGraphsAgreeWithWitness(t *testing.T) {
	bare := graph.New()
	for _, name := range paperfix.Names {
		bare.MustAddNode(name, nil)
	}
	exprs := []string{"friend+[1,2]/colleague+[1]", "friend-[1]", "friend*[1,2]", "parent+[1]/friend+[1,3]"}
	for name, g := range map[string]*graph.Graph{"never indexed": paperfix.Graph(), "label-free": bare} {
		if g.FreshCSR() != nil {
			t.Fatalf("%s: fixture graph already indexed", name)
		}
		e := New(g)
		for _, expr := range exprs {
			p := pathexpr.MustParse(expr)
			for _, from := range paperfix.Names {
				owner := node(t, g, from)
				aud, err := e.AudienceSet(owner, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, to := range paperfix.Names {
					req := node(t, g, to)
					got, err := e.Reachable(owner, req, p)
					if err != nil {
						t.Fatal(err)
					}
					fwd, rev := bothWays(t, e, owner, req, p)
					_, want, err := e.Witness(owner, req, p)
					if err != nil {
						t.Fatal(err)
					}
					_, inAud := slices.BinarySearch(aud, req)
					if got != want || fwd != want || rev != want || inAud != want {
						t.Fatalf("%s: %s from %s to %s: Reachable %v, forward %v, reversed %v, in audience %v, Witness %v", name, expr, from, to, got, fwd, rev, inAud, want)
					}
				}
			}
		}
		if indexed := g.FreshCSR() != nil; indexed != (g.NumLabels() > 0) {
			t.Fatalf("%s: indexed after the queries = %v", name, indexed)
		}
	}
}
