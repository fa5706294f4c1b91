// Largegraph exercises the library at the scale the paper targets: a 50k
// member synthetic social network, the cluster-based join index built over
// it, and a latency comparison of the three evaluators on the same policy
// checks.
package main

import (
	"fmt"
	"log"
	"time"

	"reachac"
	"reachac/internal/generate"
	"reachac/internal/workload"
)

func main() {
	const members = 50_000
	fmt.Printf("generating %d-member social network...\n", members)
	g := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(members), generate.WithSeed(7), generate.WithAttrs()))
	n := reachac.FromGraph(g)
	fmt.Printf("  %d members, %d relationships\n", n.NumUsers(), n.NumRelationships())

	// One policy: colleagues of friends, within 2 hops of friendship.
	owner, _ := n.UserID("u000100")
	if _, err := n.Share("u000100/timeline", owner, "friend+[1,2]/colleague+[1]"); err != nil {
		log.Fatal(err)
	}

	pairs := workload.HitPairs(g, 500, 3, 11)

	for _, kind := range []reachac.EngineKind{reachac.Online, reachac.Index} {
		start := time.Now()
		if err := n.UseEngine(kind); err != nil {
			log.Fatal(err)
		}
		build := time.Since(start)

		start = time.Now()
		allowed := 0
		for _, p := range pairs {
			d, err := n.CanAccess("u000100/timeline", p.Requester)
			if err != nil {
				log.Fatal(err)
			}
			if d.Effect == reachac.Allow {
				allowed++
			}
		}
		el := time.Since(start)
		fmt.Printf("%-12s build %-8v  %d checks in %v (%.1fµs/check, %d allowed)\n",
			kind, build.Round(time.Millisecond), len(pairs), el.Round(time.Millisecond),
			float64(el.Microseconds())/float64(len(pairs)), allowed)
	}

	// Deep query where the index's pruning pays off: transitive friendship
	// on a 10k-member follow-shaped (acyclic) network, where the line graph
	// keeps full SCC resolution.
	fmt.Println("\ntransitive-friend checks (friend+[1,*]), 200 random pairs, 10k follow graph:")
	g = generate.MustBuild(generate.MustNew("osn", generate.WithNodes(10_000), generate.WithSeed(7), generate.WithAttrs(), generate.WithAcyclic()))
	n = reachac.FromGraph(g)
	misses := workload.RandomPairs(g, 200, 13)
	for _, kind := range []reachac.EngineKind{reachac.Online, reachac.Index} {
		if err := n.UseEngine(kind); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		hits := 0
		for _, p := range misses {
			ok, err := n.CheckPath(p.Owner, p.Requester, "friend+[1,*]")
			if err != nil {
				log.Fatal(err)
			}
			if ok {
				hits++
			}
		}
		el := time.Since(start)
		fmt.Printf("%-12s %d checks in %v (%.1fµs/check, %d reachable)\n",
			kind, len(misses), el.Round(time.Millisecond),
			float64(el.Microseconds())/float64(len(misses)), hits)
	}
}
