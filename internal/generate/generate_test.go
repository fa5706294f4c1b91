package generate

import (
	"fmt"
	"math"
	"testing"

	"reachac/internal/graph"
)

var testLabels = []string{"friend", "colleague", "parent"}

func erdosRenyi(n, m int, seed int64) *graph.Graph {
	return MustBuild(MustNew("er", WithNodes(n), WithEdges(m), WithLabels(testLabels...), WithSeed(seed)))
}

func TestErdosRenyi(t *testing.T) {
	g := erdosRenyi(100, 300, 1)
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 300 {
		t.Fatalf("edges = %d, want 300", g.NumEdges())
	}
	if g.NumLabels() == 0 || g.NumLabels() > 3 {
		t.Fatalf("labels = %d", g.NumLabels())
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := erdosRenyi(50, 120, 7)
	b := erdosRenyi(50, 120, 7)
	same := true
	a.Edges(func(e graph.Edge) bool {
		if !b.HasEdge(e.From, e.To, a.LabelName(e.Label)) {
			same = false
			return false
		}
		return true
	})
	if !same {
		t.Fatal("same seed produced different graphs")
	}
	c := erdosRenyi(50, 120, 8)
	diff := false
	a.Edges(func(e graph.Edge) bool {
		if !c.HasEdge(e.From, e.To, a.LabelName(e.Label)) {
			diff = true
			return false
		}
		return true
	})
	if !diff {
		t.Fatal("different seeds produced identical graphs (suspicious)")
	}
}

func TestBarabasiAlbertHubs(t *testing.T) {
	g := MustBuild(MustNew("ba", WithNodes(400), WithDegree(3), WithLabels(testLabels...), WithSeed(3)))
	if g.NumNodes() != 400 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() < 400 {
		t.Fatalf("edges = %d, too few", g.NumEdges())
	}
	// Preferential attachment must create a hub: some vertex with in-degree
	// well above the mean.
	maxIn, sumIn := 0, 0
	for i := 0; i < g.NumNodes(); i++ {
		d := g.InDegree(graph.NodeID(i))
		sumIn += d
		if d > maxIn {
			maxIn = d
		}
	}
	mean := float64(sumIn) / float64(g.NumNodes())
	if float64(maxIn) < 4*mean {
		t.Fatalf("no hub: max in-degree %d vs mean %.1f", maxIn, mean)
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := MustBuild(MustNew("ws", WithNodes(120), WithDegree(3), WithRewire(0.1), WithLabels(testLabels...), WithSeed(5)))
	if g.NumNodes() != 120 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Each vertex attempted k=3 out-edges; rewiring may self-collide, so
	// allow some loss but not much.
	if g.NumEdges() < 300 {
		t.Fatalf("edges = %d, want near 360", g.NumEdges())
	}
}

func TestOSNShape(t *testing.T) {
	g := MustBuild(MustNew("osn", WithNodes(1000), WithSeed(11), WithAttrs()))
	if g.NumNodes() != 1000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Average out-degree defaults to ~8 (plus reciprocated friend edges,
	// minus duplicate collisions).
	avg := float64(g.NumEdges()) / float64(g.NumNodes())
	if avg < 5 || avg > 14 {
		t.Fatalf("avg degree = %.1f, outside [5,14]", avg)
	}
	// The default label mix must include all four types.
	if g.NumLabels() != 4 {
		t.Fatalf("labels = %d, want 4", g.NumLabels())
	}
	// Attributes present.
	if _, ok := g.Attr(0, "age"); !ok {
		t.Fatal("attributes missing")
	}
}

func TestOSNDeterministic(t *testing.T) {
	a := MustBuild(MustNew("osn", WithNodes(300), WithSeed(2)))
	b := MustBuild(MustNew("osn", WithNodes(300), WithSeed(2)))
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	a.Edges(func(e graph.Edge) bool {
		if !b.HasEdge(e.From, e.To, a.LabelName(e.Label)) {
			t.Fatalf("edge %v missing in twin", e)
		}
		return true
	})
}

func TestOSNCommunityBias(t *testing.T) {
	g := MustBuild(MustNew("osn", WithNodes(800), WithCommunities(8), WithIntraProb(0.9), WithSeed(9)))
	intra, total := 0, 0
	g.Edges(func(e graph.Edge) bool {
		total++
		if int(e.From)%8 == int(e.To)%8 {
			intra++
		}
		return true
	})
	frac := float64(intra) / float64(total)
	if frac < 0.6 {
		t.Fatalf("intra-community fraction = %.2f, expected clustering", frac)
	}
}

func TestOSNFriendReciprocity(t *testing.T) {
	g := MustBuild(MustNew("osn", WithNodes(500), WithSeed(4), WithReciprocity(0.9)))
	recip, friends := 0, 0
	g.Edges(func(e graph.Edge) bool {
		if g.LabelName(e.Label) != "friend" {
			return true
		}
		friends++
		if g.HasEdge(e.To, e.From, "friend") {
			recip++
		}
		return true
	})
	if friends == 0 {
		t.Fatal("no friend edges")
	}
	if float64(recip)/float64(friends) < 0.5 {
		t.Fatalf("reciprocity %.2f too low for 0.9 setting", float64(recip)/float64(friends))
	}
}

func TestOSNAcyclic(t *testing.T) {
	g := MustBuild(MustNew("osn", WithNodes(600), WithSeed(13), WithAcyclic()))
	g.Edges(func(e graph.Edge) bool {
		if e.From <= e.To {
			t.Fatalf("edge %v violates acyclic orientation", e)
		}
		return true
	})
	if g.NumEdges() == 0 {
		t.Fatal("no edges")
	}
}

func TestOSNCustomLabels(t *testing.T) {
	g := MustBuild(MustNew("osn", WithNodes(200), WithSeed(6), WithLabelWeights(map[string]float64{"follows": 1.0})))
	if g.NumLabels() != 1 {
		t.Fatalf("labels = %v", g.Labels())
	}
}

// TestUserName: UserName writes exactly fmt.Sprintf("u%06d", i) across the
// padding, the 6→7-digit boundary, the int32 limit and negative ids.
func TestUserName(t *testing.T) {
	for _, i := range []int{0, 9, 10, 99_999, 100_000, 999_999, 1_000_000, math.MaxInt32, -1, -42, -123_456, math.MinInt} {
		if got, want := UserName(i), fmt.Sprintf("u%06d", i); got != want {
			t.Errorf("UserName(%d) = %q, want %q", i, got, want)
		}
	}
}
