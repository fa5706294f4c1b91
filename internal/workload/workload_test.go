package workload

import (
	"testing"

	"reachac/internal/generate"
	"reachac/internal/search"
)

func TestDefaultCatalog(t *testing.T) {
	cat := DefaultCatalog()
	if len(cat) != 5 {
		t.Fatalf("catalog size = %d", len(cat))
	}
	seen := map[string]bool{}
	for _, q := range cat {
		if q.Name == "" || q.Path == nil {
			t.Fatalf("bad entry %+v", q)
		}
		if err := q.Path.Validate(); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if seen[q.Name] {
			t.Fatalf("duplicate name %s", q.Name)
		}
		seen[q.Name] = true
	}
}

func TestHitPairsAreWellFormed(t *testing.T) {
	g := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(500), generate.WithSeed(3)))
	pairs := HitPairs(g, 200, 3, 9)
	if len(pairs) != 200 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	for _, p := range pairs {
		if p.Owner == p.Requester {
			t.Fatal("degenerate pair")
		}
		if !g.ValidNode(p.Owner) || !g.ValidNode(p.Requester) {
			t.Fatal("invalid node in pair")
		}
	}
}

func TestHitPairsActuallyHitMoreThanRandom(t *testing.T) {
	g := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(800), generate.WithSeed(5)))
	eng := search.New(g)
	// "friends within 2 hops" as the probe policy.
	probe := DefaultCatalog()[1].Path
	rate := func(pairs []Pair) float64 {
		hits := 0
		for _, p := range pairs {
			ok, err := eng.Reachable(p.Owner, p.Requester, probe)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				hits++
			}
		}
		return float64(hits) / float64(len(pairs))
	}
	hitRate := rate(HitPairs(g, 150, 2, 1))
	missRate := rate(RandomPairs(g, 150, 1))
	if hitRate <= missRate {
		t.Fatalf("hit workload rate %.2f not above random %.2f", hitRate, missRate)
	}
	if hitRate < 0.2 {
		t.Fatalf("hit rate %.2f suspiciously low", hitRate)
	}
}

func TestRandomPairsDeterministic(t *testing.T) {
	g := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(200), generate.WithSeed(1)))
	a := RandomPairs(g, 50, 42)
	b := RandomPairs(g, 50, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different pairs")
		}
	}
}

func TestRequests(t *testing.T) {
	g := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(300), generate.WithSeed(2)))
	reqs := Requests(g, 500, len(DefaultCatalog()), 7)
	if len(reqs) != 500 {
		t.Fatalf("requests = %d", len(reqs))
	}
	queryUsed := map[int]bool{}
	for _, r := range reqs {
		if r.Owner == r.Requester {
			t.Fatal("degenerate request")
		}
		if r.Query < 0 || r.Query >= 5 {
			t.Fatalf("query index %d", r.Query)
		}
		queryUsed[r.Query] = true
	}
	if len(queryUsed) < 3 {
		t.Fatalf("only %d catalog entries used in 500 requests", len(queryUsed))
	}
}
