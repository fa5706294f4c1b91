package generate

import (
	"errors"
	"testing"

	"reachac/internal/graph"
)

func allKindsSmall() map[string]Topology {
	return map[string]Topology{
		"osn":  MustNew("osn", WithNodes(300), WithSeed(7), WithAttrs()),
		"ldbc": MustNew("ldbc", WithNodes(300), WithSeed(7), WithCommunities(6)),
		"er":   MustNew("er", WithNodes(120), WithEdges(400), WithSeed(7)),
		"ba":   MustNew("ba", WithNodes(200), WithDegree(3), WithSeed(7)),
		"ws":   MustNew("ws", WithNodes(150), WithDegree(3), WithRewire(0.1), WithSeed(7)),
	}
}

// TestTopologyDeterminism: same seed → byte-identical op stream
// (fingerprint equality), different seed → different stream. This is the
// property gengraph's two-pass writer and acbench's cross-run
// comparability rest on.
func TestTopologyDeterminism(t *testing.T) {
	for kind, top := range allKindsSmall() {
		a, err := Fingerprint(top)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, err := Fingerprint(top)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if a != b {
			t.Fatalf("%s: two streams of one topology differ: %x vs %x", kind, a, b)
		}
		reseeded := map[string]Topology{
			"osn":  MustNew("osn", WithNodes(300), WithSeed(8), WithAttrs()),
			"ldbc": MustNew("ldbc", WithNodes(300), WithSeed(8), WithCommunities(6)),
			"er":   MustNew("er", WithNodes(120), WithEdges(400), WithSeed(8)),
			"ba":   MustNew("ba", WithNodes(200), WithDegree(3), WithSeed(8)),
			"ws":   MustNew("ws", WithNodes(150), WithDegree(3), WithRewire(0.1), WithSeed(8)),
		}[kind]
		c, err := Fingerprint(reseeded)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if a == c {
			t.Fatalf("%s: different seeds produced identical streams", kind)
		}
	}
}

// TestTopologyContract checks the stream invariants every consumer
// relies on: all nodes precede all edges, node i is named UserName(i),
// edge endpoints reference already-emitted nodes, and the stream is
// self-loop- and duplicate-free (replaying through graph.AddEdge never
// errors).
func TestTopologyContract(t *testing.T) {
	for kind, top := range allKindsSmall() {
		g := graph.New()
		edgesStarted := false
		nodes := 0
		err := top.Stream(func(op Op) error {
			switch op.Kind {
			case OpNode:
				if edgesStarted {
					t.Fatalf("%s: node op after first edge op", kind)
				}
				if want := UserName(nodes); op.Name != want {
					t.Fatalf("%s: node %d named %q, want %q", kind, nodes, op.Name, want)
				}
				nodes++
				_, err := g.AddNode(op.Name, op.Attrs)
				return err
			case OpEdge:
				edgesStarted = true
				if int(op.From) >= nodes || int(op.To) >= nodes {
					t.Fatalf("%s: edge %d->%d references unseen node", kind, op.From, op.To)
				}
				_, err := g.AddEdge(op.From, op.To, op.Label)
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: replay through graph mutators failed: %v", kind, err)
		}
		if nodes != top.Nodes() {
			t.Fatalf("%s: emitted %d nodes, Nodes() says %d", kind, nodes, top.Nodes())
		}
		if g.NumEdges() == 0 {
			t.Fatalf("%s: no edges", kind)
		}
	}
}

// TestTopologyCountMatchesBuild: Count's totals must equal the
// materialized graph's — gengraph writes Count's numbers into the file
// header before streaming records.
func TestTopologyCountMatchesBuild(t *testing.T) {
	for kind, top := range allKindsSmall() {
		n, e, err := Count(top)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		g := MustBuild(top)
		if n != g.NumNodes() || e != g.NumEdges() {
			t.Fatalf("%s: Count = (%d, %d), Build = (%d, %d)",
				kind, n, e, g.NumNodes(), g.NumEdges())
		}
	}
}

// TestLDBCDegreeShape asserts the power-law signatures at small n: mean
// out-degree near the configured target, a popularity hub (max in-degree
// far above the mean — Chung-Lu target sampling), and a fan-out hub (max
// out-degree above the Pareto mean).
func TestLDBCDegreeShape(t *testing.T) {
	const n, degree = 2000, 8
	g := MustBuild(MustNew("ldbc", WithNodes(n), WithDegree(degree), WithSeed(11)))
	if g.NumNodes() != n {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	mean := float64(g.NumEdges()) / float64(n)
	if mean < 0.5*degree || mean > 1.5*degree {
		t.Fatalf("mean out-degree %.1f, want near %d", mean, degree)
	}
	maxIn, maxOut := 0, 0
	for i := 0; i < n; i++ {
		if d := g.InDegree(graph.NodeID(i)); d > maxIn {
			maxIn = d
		}
		if d := g.OutDegree(graph.NodeID(i)); d > maxOut {
			maxOut = d
		}
	}
	if float64(maxIn) < 8*mean {
		t.Fatalf("no popularity hub: max in-degree %d vs mean %.1f", maxIn, mean)
	}
	if float64(maxOut) < 2*mean {
		t.Fatalf("no fan-out tail: max out-degree %d vs mean %.1f", maxOut, mean)
	}
}

// TestLDBCCommunityBias: with K communities assigned round-robin, an
// intra probability of 0.9 must leave most edges inside their source's
// community.
func TestLDBCCommunityBias(t *testing.T) {
	const k = 8
	g := MustBuild(MustNew("ldbc",
		WithNodes(800), WithCommunities(k), WithIntraProb(0.9), WithSeed(9)))
	intra, total := 0, 0
	g.Edges(func(e graph.Edge) bool {
		total++
		if int(e.From)%k == int(e.To)%k {
			intra++
		}
		return true
	})
	if frac := float64(intra) / float64(total); frac < 0.6 {
		t.Fatalf("intra-community fraction = %.2f, expected clustering", frac)
	}
}

// TestLDBCAttrs: WithAttrs decorates every member.
func TestLDBCAttrs(t *testing.T) {
	g := MustBuild(MustNew("ldbc", WithNodes(50), WithSeed(1), WithAttrs()))
	for i := 0; i < 50; i++ {
		if _, ok := g.Attr(graph.NodeID(i), "age"); !ok {
			t.Fatalf("node %d missing attrs", i)
		}
	}
}

// TestOSNByteIdentical pins the osn family's op stream against frozen
// fingerprints taken from the positional-argument OSN() generator it
// replaced, so future refactors cannot silently shift the draw sequence
// that bench baselines and experiment scripts depend on.
func TestOSNByteIdentical(t *testing.T) {
	cases := []struct {
		opts []Option
		want uint64
	}{
		{[]Option{WithNodes(300), WithSeed(2)}, 0xc12b90bcff3353ea},
		{[]Option{WithNodes(300), WithSeed(2), WithDegree(4), WithAttrs(), WithAcyclic()}, 0x9c297fbac0d1bf75},
	}
	for i, tc := range cases {
		fp, err := Fingerprint(MustNew("osn", tc.opts...))
		if err != nil {
			t.Fatal(err)
		}
		if fp != tc.want {
			t.Errorf("case %d: fingerprint %#x, want the frozen %#x", i, fp, tc.want)
		}
	}
}

// TestLDBCByteIdentical pins the ldbc family's op stream, from which every
// benchmark workload builds its graph, against fingerprints frozen at the
// benchmark's shapes (20 000 and 100 000 members, degree 8, seeds 1 and
// 11), so that no change shifts the graphs the benchmark compares across
// commits without saying so.
func TestLDBCByteIdentical(t *testing.T) {
	cases := []struct {
		nodes int
		seed  int64
		want  uint64
	}{
		{20_000, 1, 0x5c3f60e4e12475de},
		{20_000, 11, 0x6210464195ee0171},
		{100_000, 1, 0x7a1bf8f717466b03},
		{100_000, 11, 0x454cfb07d2020624},
	}
	for _, tc := range cases {
		fp, err := Fingerprint(MustNew("ldbc", WithNodes(tc.nodes), WithDegree(8), WithSeed(tc.seed)))
		if err != nil {
			t.Fatal(err)
		}
		if fp != tc.want {
			t.Errorf("%d nodes, seed %d: fingerprint %#x, want the frozen %#x", tc.nodes, tc.seed, fp, tc.want)
		}
	}
}

// TestUniformByteIdentical pins the er, ba and ws op streams the same way
// TestOSNByteIdentical pins osn's. Each family gets one benchmark-sized case
// and one small dense case whose draws collide often, so the per-source
// duplicate suppression is on the pinned path.
func TestUniformByteIdentical(t *testing.T) {
	cases := []struct {
		kind string
		opts []Option
		want uint64
	}{
		{"er", []Option{WithNodes(2_000), WithEdges(8_000), WithSeed(1)}, 0x808335860e6ffd3},
		{"er", []Option{WithNodes(50), WithEdges(2_000), WithLabels("friend", "colleague"), WithSeed(3)}, 0x6c749873551465a8},
		{"ba", []Option{WithNodes(20_000), WithDegree(8), WithSeed(1)}, 0x79d7e01ebf3b7006},
		{"ba", []Option{WithNodes(300), WithDegree(3), WithLabels(testLabels...), WithSeed(7)}, 0x83ac3165277dbbe0},
		{"ws", []Option{WithNodes(20_000), WithDegree(8), WithRewire(0.5), WithSeed(1)}, 0x770e393725781579},
		{"ws", []Option{WithNodes(40), WithDegree(6), WithRewire(0.9), WithLabels("friend"), WithSeed(7)}, 0xb41d50a12cd6f5a9},
	}
	for i, tc := range cases {
		fp, err := Fingerprint(MustNew(tc.kind, tc.opts...))
		if err != nil {
			t.Fatal(err)
		}
		if fp != tc.want {
			t.Errorf("case %d (%s): fingerprint %#x, want the frozen %#x", i, tc.kind, fp, tc.want)
		}
	}
}

// TestNewRejectsBadConfigs covers New's validation surface.
func TestNewRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		kind string
		opts []Option
	}{
		{"warp", []Option{WithNodes(10)}},
		{"osn", nil}, // missing nodes
		{"ldbc", []Option{WithNodes(10), WithAcyclic()}},
		{"ldbc", []Option{WithNodes(10), WithReciprocity(0.5)}},
		{"ldbc", []Option{WithNodes(10), WithPowerLaw(1.5)}},
		{"ldbc", []Option{WithNodes(10), WithDegreeTail(0.5)}},
		{"er", []Option{WithNodes(3), WithEdges(1000), WithLabels("friend")}},
	}
	for _, tc := range cases {
		if _, err := New(tc.kind, tc.opts...); err == nil {
			t.Errorf("New(%q, %d opts) accepted a bad config", tc.kind, len(tc.opts))
		}
	}
}

// TestStreamAbortsOnEmitError: an emit error must stop the stream and
// surface unchanged — gengraph's nonzero-exit-on-partial-write depends
// on it.
func TestStreamAbortsOnEmitError(t *testing.T) {
	sentinel := errors.New("disk full")
	for kind, top := range allKindsSmall() {
		calls := 0
		err := top.Stream(func(Op) error {
			calls++
			if calls == 5 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("%s: emit error not propagated: %v", kind, err)
		}
		if calls != 5 {
			t.Fatalf("%s: stream continued after error (%d calls)", kind, calls)
		}
	}
}
