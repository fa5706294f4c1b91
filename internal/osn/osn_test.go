package osn

import (
	"testing"

	"reachac/internal/core"
	"reachac/internal/generate"
	"reachac/internal/graph"
	"reachac/internal/search"
	"reachac/internal/workload"
)

func TestPopulateAndRun(t *testing.T) {
	g := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(400), generate.WithSeed(1)))
	n := New(g, search.New(g))
	created, err := n.Populate(workload.DefaultCatalog(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if created != 200 {
		t.Fatalf("created = %d, want 200", created)
	}
	reqs := workload.Requests(g, 300, len(workload.DefaultCatalog()), 5)
	res, err := n.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decided+res.Skipped != 300 {
		t.Fatalf("accounting broken: %+v", res)
	}
	if res.Decided == 0 {
		t.Fatal("nothing decided")
	}
	if res.Allowed+res.Denied != res.Decided {
		t.Fatalf("allow/deny mismatch: %+v", res)
	}
	// On hit-biased workloads with friend-ish policies, some requests must
	// be allowed and some denied.
	if res.Allowed == 0 {
		t.Fatal("no request allowed — workload or policies broken")
	}
	if res.Denied == 0 {
		t.Fatal("no request denied — deny-by-default broken")
	}
}

func TestPopulateEveryone(t *testing.T) {
	g := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(50), generate.WithSeed(2)))
	n := New(g, search.New(g))
	created, err := n.Populate(workload.DefaultCatalog(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if created != 50 {
		t.Fatalf("created = %d", created)
	}
	// Every member's resource is registered and owner-accessible.
	for i := 0; i < 50; i++ {
		owner := graph.NodeID(i)
		d, err := n.Engine.Decide(ResourceName(owner, 0), owner)
		if err != nil {
			t.Fatal(err)
		}
		if d.Effect != core.Allow {
			t.Fatalf("owner %d denied own resource", i)
		}
	}
}

func TestPopulateRejectsDuplicateRun(t *testing.T) {
	g := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(20), generate.WithSeed(3)))
	n := New(g, search.New(g))
	if _, err := n.Populate(workload.DefaultCatalog(), 1, 1); err != nil {
		t.Fatal(err)
	}
	// Re-populating the same resources collides on duplicate rule IDs.
	if _, err := n.Populate(workload.DefaultCatalog(), 1, 1); err == nil {
		t.Fatal("duplicate Populate accepted")
	}
}

func TestRunSkipsOwnerlessMembers(t *testing.T) {
	g := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(40), generate.WithSeed(4)))
	n := New(g, search.New(g))
	// Only every 4th member owns a resource.
	if _, err := n.Populate(workload.DefaultCatalog(), 4, 2); err != nil {
		t.Fatal(err)
	}
	reqs := workload.Requests(g, 100, len(workload.DefaultCatalog()), 5)
	res, err := n.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Fatal("expected skipped requests against non-owners")
	}
	if res.Decided+res.Skipped != 100 {
		t.Fatalf("accounting: %+v", res)
	}
}

func TestResourceName(t *testing.T) {
	if ResourceName(7, 2) != "res-7-2" {
		t.Fatalf("ResourceName = %q", ResourceName(7, 2))
	}
}
