package reachac

import (
	"path/filepath"
	"testing"

	"reachac/internal/generate"
	"reachac/internal/workload"
)

func loadTestTopology() generate.Topology {
	return generate.MustNew("osn",
		generate.WithNodes(250), generate.WithSeed(6), generate.WithAttrs())
}

// TestLoadTopologyMatchesBuild: streaming a topology through chunked
// batches must produce the same network as materializing it — same
// counts, same names, same access decisions.
func TestLoadTopologyMatchesBuild(t *testing.T) {
	top := loadTestTopology()
	streamed := New()
	// An odd chunk size exercises a final partial flush.
	if err := streamed.LoadTopology(top, 37); err != nil {
		t.Fatal(err)
	}
	built := FromGraph(generate.MustBuild(top))
	if streamed.NumUsers() != built.NumUsers() ||
		streamed.NumRelationships() != built.NumRelationships() {
		t.Fatalf("streamed (%d users, %d rels) != built (%d users, %d rels)",
			streamed.NumUsers(), streamed.NumRelationships(),
			built.NumUsers(), built.NumRelationships())
	}
	for _, nw := range []*Network{streamed, built} {
		if _, err := nw.Share("album", 3, "friend+[1,2]"); err != nil {
			t.Fatal(err)
		}
	}
	for req := UserID(0); req < 250; req += 7 {
		a, err := streamed.CanAccess("album", req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := built.CanAccess("album", req)
		if err != nil {
			t.Fatal(err)
		}
		if a.Effect != b.Effect {
			t.Fatalf("requester %d: streamed=%v built=%v", req, a.Effect, b.Effect)
		}
	}
	// Topology node i must be UserID i under its generated name.
	v, err := streamed.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for _, i := range []int{0, 41, 249} {
		id, ok := v.UserID(generate.UserName(i))
		if !ok || id != UserID(i) {
			t.Fatalf("user %d resolved to (%d, %v)", i, id, ok)
		}
	}
}

// TestLoadTopologyRejectsNonEmpty: dense-ID alignment only holds from
// empty, so anything else must refuse.
func TestLoadTopologyRejectsNonEmpty(t *testing.T) {
	nw := New()
	if _, err := nw.AddUser("existing"); err != nil {
		t.Fatal(err)
	}
	if err := nw.LoadTopology(loadTestTopology(), 0); err == nil {
		t.Fatal("LoadTopology accepted a non-empty network")
	}
}

// TestLoadTopologyDurable: a streamed load into a WAL-backed network
// must survive reopen with full counts — each chunk is one durable group
// commit.
func TestLoadTopologyDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "net")
	nw, err := Open(dir, WithSync(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	top := generate.MustNew("ldbc", generate.WithNodes(400), generate.WithSeed(8))
	if err := nw.LoadTopology(top, 128); err != nil {
		t.Fatal(err)
	}
	users, rels := nw.NumUsers(), nw.NumRelationships()
	if users != 400 || rels == 0 {
		t.Fatalf("loaded (%d, %d)", users, rels)
	}
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(dir, WithSync(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.NumUsers() != users || back.NumRelationships() != rels {
		t.Fatalf("reopen lost data: (%d, %d) != (%d, %d)",
			back.NumUsers(), back.NumRelationships(), users, rels)
	}
}

// TestViewSourceAdapter: the View adjacency accessors must satisfy
// workload.Source semantics — same walks as the underlying graph — so
// streamed bench cells can build workloads without a *graph.Graph.
func TestViewSourceAdapter(t *testing.T) {
	top := loadTestTopology()
	g := generate.MustBuild(top)
	nw := FromGraph(g.Clone())
	v, err := nw.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for id := UserID(0); id < 250; id += 11 {
		if v.OutDegree(id) != g.OutDegree(id) {
			t.Fatalf("user %d: view degree %d, graph degree %d",
				id, v.OutDegree(id), g.OutDegree(id))
		}
		var viaView []UserID
		v.Relationships(id, func(to UserID, relType string) bool {
			if relType == "" {
				t.Fatalf("user %d: empty relType", id)
			}
			if !v.HasRelationship(id, to, relType) {
				t.Fatalf("user %d: visited relationship %d/%s not reported by HasRelationship",
					id, to, relType)
			}
			viaView = append(viaView, to)
			return true
		})
		var viaGraph []UserID
		g.Neighbors(id, func(to UserID) bool {
			viaGraph = append(viaGraph, to)
			return true
		})
		if len(viaView) != len(viaGraph) {
			t.Fatalf("user %d: view saw %d targets, graph %d", id, len(viaView), len(viaGraph))
		}
		for i := range viaView {
			if viaView[i] != viaGraph[i] {
				t.Fatalf("user %d: neighbor order diverged at %d", id, i)
			}
		}
	}
	// And a View wrapped as a Source must drive workload construction.
	specs := workload.Scenario{}.Resources(viewSource{v}, 6, 3)
	if len(specs) != 6 {
		t.Fatalf("specs = %d", len(specs))
	}
	gen := workload.NewGenerator(viewSource{v}, workload.Mix{Name: "t", Check: 1}, workload.GenConfig{Resources: specs}, 1)
	if op := gen.Next(); op.Kind != workload.OpCheck {
		t.Fatalf("unexpected op %v", op.Kind)
	}
}

// viewSource adapts a pinned View to workload.Source (mirrors the
// adapter cmd/acbench uses for streamed cells).
type viewSource struct{ v *View }

func (s viewSource) NumNodes() int          { return s.v.NumUsers() }
func (s viewSource) OutDegree(n UserID) int { return s.v.OutDegree(n) }
func (s viewSource) Neighbors(n UserID, fn func(UserID) bool) {
	s.v.Relationships(n, func(to UserID, _ string) bool { return fn(to) })
}
func (s viewSource) HasEdge(from, to UserID, relType string) bool {
	return s.v.HasRelationship(from, to, relType)
}
