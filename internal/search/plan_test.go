package search

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// TestPlanIdentityIsExpressionIdentity: separately parsed, differently
// spelled paths of one expression resolve to one plan, compiled once.
func TestPlanIdentityIsExpressionIdentity(t *testing.T) {
	g, _ := audCacheFixture(t, 10)
	e := New(g)
	var compiles atomic.Uint64
	e.PlanCompiles = &compiles
	first, err := e.Plan(mustPath(t, "friend+[1,2]/colleague+[1]"))
	if err != nil {
		t.Fatal(err)
	}
	for _, spelling := range []string{"friend+[1,2]/colleague+[1]", "friend +[1, 2] / colleague+[1,1]", "friend+[1,2]/colleague+"} {
		pl, err := e.Plan(mustPath(t, spelling))
		if err != nil {
			t.Fatal(err)
		}
		if pl != first {
			t.Fatalf("%q resolved to a plan of its own", spelling)
		}
	}
	if _, err := e.Plan(mustPath(t, "friend+[1,2]/colleague-[1]")); err != nil {
		t.Fatal(err)
	}
	if got := compiles.Load(); got != 2 {
		t.Fatalf("PlanCompiles = %d, want 2 (one per distinct expression)", got)
	}
	if got := e.PlanCacheLen(); got != 2 {
		t.Fatalf("PlanCacheLen = %d, want 2", got)
	}
}

// TestPlanCacheEvictsWhenFull: past its bound the cache keeps admitting new
// expressions (a full cache used to refuse them for good) and never grows.
func TestPlanCacheEvictsWhenFull(t *testing.T) {
	g, _ := audCacheFixture(t, 10)
	e := New(g)
	var compiles atomic.Uint64
	e.PlanCompiles = &compiles
	for k := 1; k <= maxPlanCacheEntries+40; k++ {
		p := mustPath(t, fmt.Sprintf("friend+[1,%d]", k))
		pl, err := e.Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		before := compiles.Load()
		if again, err := e.Plan(p); err != nil || again != pl || compiles.Load() != before {
			t.Fatalf("expression %d was not cached once compiled", k)
		}
		if n := e.PlanCacheLen(); n > maxPlanCacheEntries {
			t.Fatalf("plan cache holds %d entries, bound %d", n, maxPlanCacheEntries)
		}
	}
	if n := e.PlanCacheLen(); n != maxPlanCacheEntries {
		t.Fatalf("plan cache holds %d entries after overflowing, want %d", n, maxPlanCacheEntries)
	}
}

// TestPlanCacheConcurrent has several goroutines resolve and run an
// overlapping set of expressions on one cold engine, so that lock-free
// lookups race the copy-on-write publications of new plans (run with -race);
// every answer must agree with the map-based search.
func TestPlanCacheConcurrent(t *testing.T) {
	g, ids := audCacheFixture(t, 60)
	g.CSR()
	var exprs []string
	for k := 1; k <= 12; k++ {
		exprs = append(exprs, fmt.Sprintf("friend+[1,%d]", k), fmt.Sprintf("friend+[1,%d]/colleague*[1]", k))
	}
	type query struct {
		p          *pathexpr.Path
		owner, req graph.NodeID
		want       bool
	}
	var queries []query
	oracle := New(g)
	for i, expr := range exprs {
		p := mustPath(t, expr)
		owner, req := ids[i%7], ids[(i*5+3)%40]
		_, want, err := oracle.Witness(owner, req, p)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, query{p, owner, req, want})
	}
	e := New(g)
	var compiles atomic.Uint64
	e.PlanCompiles = &compiles
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				q := queries[(i*7+w*3)%len(queries)]
				// A fresh parse per query, as CheckPath does.
				got, err := e.Reachable(q.owner, q.req, pathexpr.MustParse(q.p.String()))
				if err != nil || got != q.want {
					t.Errorf("%s %d→%d = (%v, %v), want %v", q.p, q.owner, q.req, got, err, q.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := e.PlanCacheLen(); n != len(exprs) {
		t.Fatalf("PlanCacheLen = %d, want %d", n, len(exprs))
	}
	// Racing first uses may compile an expression more than once; later
	// uses never do.
	if c := compiles.Load(); c < uint64(len(exprs)) || c > uint64(8*len(exprs)) {
		t.Fatalf("PlanCompiles = %d for %d expressions on 8 goroutines", c, len(exprs))
	}
}
