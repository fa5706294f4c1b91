package search

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/paperfix"
	"reachac/internal/pathexpr"
)

// agreesWithRef fails t unless Reachable answers every (owner, requester)
// pair among ids as the reference search (refReachable) does, and every
// allow has a Witness that verifies. It returns the number of allows.
func agreesWithRef(t testing.TB, what string, e *Engine, g *graph.Graph, p *pathexpr.Path, owners, requesters []graph.NodeID) int {
	t.Helper()
	allows := 0
	for _, o := range owners {
		for _, r := range requesters {
			got, err := e.Reachable(o, r, p)
			if err != nil {
				t.Fatal(err)
			}
			if want := refReachable(t, e, o, r, p); got != want {
				t.Fatalf("%s: %s from %d to %d: Reachable %v, reference %v", what, p, o, r, got, want)
			}
			if !got {
				continue
			}
			allows++
			hops, ok, err := e.Witness(o, r, p)
			if err != nil || !ok {
				t.Fatalf("%s: %s from %d to %d allowed, Witness (%v, %v)", what, p, o, r, ok, err)
			}
			if err := VerifyWitness(g, o, r, p, hops); err != nil {
				t.Fatalf("%s: %s from %d to %d: witness invalid: %v", what, p, o, r, err)
			}
		}
	}
	return allows
}

// randomGraph has n members, half of them with an age, and about degree·n
// edges over three labels.
func randomGraph(rng *rand.Rand, n, degree int) (*graph.Graph, []graph.NodeID) {
	labels := []string{"friend", "colleague", "parent"}
	g := graph.New()
	ids := make([]graph.NodeID, n)
	for i := range ids {
		var attrs graph.Attrs
		if rng.Intn(2) == 0 {
			attrs = graph.Attrs{"age": graph.Int(10 + rng.Intn(50))}
		}
		ids[i] = g.MustAddNode(fmt.Sprintf("n%04d", i), attrs)
	}
	for i := 0; i < n*degree; i++ {
		u, v := ids[rng.Intn(n)], ids[rng.Intn(n)]
		if u != v {
			_, _ = g.AddEdge(u, v, labels[rng.Intn(len(labels))])
		}
	}
	return g, ids
}

// meetExprs cover what the meet rule must get right: multi-step bounded
// paths, the either-way direction, unbounded steps from depth 1 and 2, a
// depth window that starts above 1, and predicates on a middle and on the
// last step.
var meetExprs = []string{
	"friend+[1,2]/colleague+[1]",
	"friend+[1,2]/colleague+[1]/friend+[1]",
	"friend+[1,4]",
	"friend-[1]/colleague+[1]",
	"friend*[1,3]",
	"friend*[1,2]/parent+[1]",
	"colleague+[1,*]",
	"friend+[2,*]/colleague-[1]",
	"friend*[2,*]",
	"friend+[2,3]",
	"friend+[2,3]/colleague*[1,2]",
	"friend+[1]{age>=18}/parent-[1]",
	"friend+[1,2]/colleague+[1]{age>=30}/friend+[1,2]",
	"parent+[1]/friend+[1,3]{age<40}",
	"friend*[1,2]{age<45}/colleague*[1,3]{age>=18}",
}

// TestReachableAgreesWithMapKernel: on random graphs, small ones asked every
// pair and larger ones a sample, the meet search answers as the reference
// search (refSearch, a map-keyed BFS over the edge table) does from the
// owner, and every allow has a witness that verifies.
func TestReachableAgreesWithMapKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	allows, denies := 0, 0
	for trial := 0; trial < 10; trial++ {
		n, sample := 4+rng.Intn(12), 0
		if trial >= 6 {
			n, sample = 80+rng.Intn(60), 24
		}
		g, ids := randomGraph(rng, n, 2+rng.Intn(2))
		e := New(g)
		owners, requesters := ids, ids
		if sample > 0 {
			owners, requesters = ids[:sample], ids[len(ids)-sample:]
		}
		for _, expr := range meetExprs {
			a := agreesWithRef(t, fmt.Sprintf("trial %d", trial), e, g, pathexpr.MustParse(expr), owners, requesters)
			allows += a
			denies += len(owners)*len(requesters) - a
		}
	}
	if allows < 100 || denies < 100 {
		t.Fatalf("fixtures are one-sided: %d allows, %d denies", allows, denies)
	}
}

// splitChain is the friend chain o → m → r, m also leading to three others.
// A meet search from o to r expands its first layer forward (both endpoints
// admit one traversal, and a tie goes forward) and its second backward (m's
// four against r's one).
func splitChain() (g *graph.Graph, o, r graph.NodeID) {
	g = graph.New()
	o, m, r := g.MustAddNode("o", nil), g.MustAddNode("m", nil), g.MustAddNode("r", nil)
	g.MustAddEdge(o, m, "friend")
	g.MustAddEdge(m, r, "friend")
	for i := 0; i < 3; i++ {
		g.MustAddEdge(m, g.MustAddNode(fmt.Sprintf("x%d", i), nil), "friend")
	}
	return g, o, r
}

// TestMeetSplitsDepthWindow: on splitChain, friend+[2] is found by two
// sides of one edge each. The depth window must add up across them exactly:
// one edge short or over is a deny.
func TestMeetSplitsDepthWindow(t *testing.T) {
	g, o, r := splitChain()
	e := New(g)
	for expr, want := range map[string]bool{
		"friend+[2]":   true,
		"friend+[1]":   false,
		"friend+[3]":   false,
		"friend+[1,3]": true,
		"friend+[3,4]": false,
		"friend+[2,*]": true,
		"friend+[3,*]": false,
		"friend-[2]":   false,
		// The window split at a step boundary: each side's first step ends
		// at its MaxDepth, a position probed and never marked.
		"friend+[1]/friend+[1]": true,
		"friend+[1]/friend+[2]": false,
		"friend+[2]/friend+[1]": false,
	} {
		if got, err := e.Reachable(o, r, pathexpr.MustParse(expr)); err != nil || got != want {
			t.Errorf("%s from o to r = (%v, %v), want %v", expr, got, err, want)
		}
	}
}

// TestReachableReverseInvalidNodeErrorMatchesForward: an invalid requester,
// where the backward side would start, is the same error as an invalid
// owner, returned before either side reads a node.
func TestReachableReverseInvalidNodeErrorMatchesForward(t *testing.T) {
	e := New(paperfix.Graph())
	_, ownerErr := e.Reachable(999, 0, paperfix.Q1())
	_, reqErr := e.Reachable(0, 999, paperfix.Q1())
	if ownerErr == nil || reqErr == nil || !strings.HasPrefix(reqErr.Error(), "search: invalid node") ||
		!strings.HasPrefix(ownerErr.Error(), "search: invalid node") {
		t.Fatalf("invalid endpoints: owner %v, requester %v", ownerErr, reqErr)
	}
}

// TestFanoutFollowsPatchedCSR: the fan-out that picks the side to expand
// reads the CSR, which the graph patches through mutations.
func TestFanoutFollowsPatchedCSR(t *testing.T) {
	g := graph.New()
	a := g.MustAddNode("a", nil)
	b := g.MustAddNode("b", nil)
	c := g.MustAddNode("c", nil)
	g.MustAddEdge(a, b, "friend")
	g.MustAddEdge(a, c, "friend")
	g.MustAddEdge(b, a, "friend")
	e := New(g)
	p := pathexpr.MustParse("friend+[1]")
	if ok, err := e.Reachable(a, b, p); err != nil || !ok {
		t.Fatalf("Reachable = (%v, %v), want found", ok, err)
	}
	csr := g.CSR()
	pl, err := e.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	// The owner side expands the pattern's first step from a, the requester
	// side its reversal's from b.
	fans := func() (fwd, rev int) {
		return fanout(g.CSR(), a, &pl.steps[0]), fanout(g.CSR(), b, &pl.rev.steps[0])
	}
	if fwd, rev := fans(); fwd != 2 || rev != 1 {
		t.Fatalf("fan-outs = (%d, %d), want (2, 1)", fwd, rev)
	}
	g.MustAddEdge(c, b, "friend")
	if err := g.RemoveEdge(g.FindEdge(a, c, g.Label("friend"))); err != nil {
		t.Fatal(err)
	}
	if fwd, rev := fans(); fwd != 1 || rev != 2 || g.CSR() != csr {
		t.Fatalf("patched fan-outs = (%d, %d), want (1, 2) off the same CSR", fwd, rev)
	}
	both, err := e.Plan(pathexpr.MustParse("friend*[1]"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fanout(g.CSR(), b, &both.steps[0]); got != 3 {
		t.Fatalf("either-way fan-out of b = %d, want 3", got)
	}
}

// FuzzReachableMeet builds a graph of up to nine members and a pattern of
// up to three steps from the input, and holds Reachable to the reference
// search on every pair, and every allow's Witness to VerifyWitness.
func FuzzReachableMeet(f *testing.F) {
	f.Add([]byte{5, 1, 0x00, 0x01, 0x00, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{7, 2, 0x0c, 0x14, 0x01, 0x20, 0x2e, 0x05, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0})
	f.Add([]byte{8, 3, 0x31, 0x02, 0x11, 0x05, 0x1a, 0x2d, 0x48, 0x0e, 0x13, 1, 0, 2, 1, 3, 2, 4, 3, 0x15, 0x26, 7, 0x37})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		n := 2 + int(in[0])%8
		k := 1 + int(in[1])%3
		in = in[2:]
		if len(in) < 3*k {
			return
		}
		p := &pathexpr.Path{}
		for i := 0; i < k; i++ {
			lb, db, pb := in[3*i], in[3*i+1], in[3*i+2]
			st := pathexpr.Step{
				Label:    []string{"friend", "colleague"}[lb%2],
				Dir:      pathexpr.Direction(lb / 2 % 3),
				MinDepth: 1 + int(db)%3,
			}
			switch db / 3 % 4 {
			case 3:
				st.Unbounded = true
			default:
				st.MaxDepth = st.MinDepth + int(db/3%4)
			}
			switch pb % 3 {
			case 1:
				st.Preds = []pathexpr.Pred{{Attr: "age", Op: pathexpr.OpGe, Value: graph.Int(30)}}
			case 2:
				st.Preds = []pathexpr.Pred{{Attr: "age", Op: pathexpr.OpLt, Value: graph.Int(30)}}
			}
			p.Steps = append(p.Steps, st)
		}
		in = in[3*k:]
		g := graph.New()
		ids := make([]graph.NodeID, n)
		for i := range ids {
			var attrs graph.Attrs
			if i%4 != 3 {
				attrs = graph.Attrs{"age": graph.Int(10 + i*13%50)}
			}
			ids[i] = g.MustAddNode(fmt.Sprintf("n%d", i), attrs)
		}
		for i := 0; i+1 < len(in) && i < 64; i += 2 {
			u, v := ids[int(in[i])%n], ids[int(in[i+1])%n]
			if u != v {
				_, _ = g.AddEdge(u, v, []string{"friend", "colleague"}[in[i]/16%2])
			}
		}
		agreesWithRef(t, "fuzz", New(g), g, p, ids, ids)
	})
}

// TestChooseAsCompleteCounts: choose, counting layers only in part, picks
// the side that complete counts pick (the smaller fan, the owner's on a
// tie), with the chosen side's fan complete and each partial count the sum
// over the positions it covers, from any partial counts it starts from.
func TestChooseAsCompleteCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, ids := randomGraph(rng, 60, 2)
	e := New(g)
	pl, err := e.Plan(pathexpr.MustParse("friend*[1,2]/colleague+[1]"))
	if err != nil {
		t.Fatal(err)
	}
	csr := g.CSR()
	sum := func(h *half, end int) int {
		n := 0
		for _, p := range h.marked[h.head:end] {
			node, s, _ := unpackState(p)
			n += fanout(csr, node, &h.c.steps[s])
		}
		return n
	}
	layer := func(c *compiled) *half {
		h := &half{c: c, head: rng.Intn(3)}
		for range h.head + rng.Intn(4) {
			h.marked = append(h.marked, packState(ids[rng.Intn(len(ids))], int32(rng.Intn(len(c.steps))), 0))
		}
		h.head = min(h.head, len(h.marked))
		h.counted = h.head + rng.Intn(len(h.marked)-h.head+1)
		h.fan = sum(h, h.counted)
		return h
	}
	for trial := range 2000 {
		fw, bw := layer(&pl.compiled), layer(&pl.rev)
		wantBw := sum(bw, len(bw.marked)) < sum(fw, len(fw.marked))
		got := choose(csr, fw, bw)
		if (got == bw) != wantBw || !got.complete() {
			t.Fatalf("trial %d: chose the requester's side %v (complete %v), want %v", trial, got == bw, got.complete(), wantBw)
		}
		for _, h := range []*half{fw, bw} {
			if h.fan != sum(h, h.counted) {
				t.Fatalf("trial %d: fan %d over %d positions, want %d", trial, h.fan, h.counted-h.head, sum(h, h.counted))
			}
		}
	}
}
