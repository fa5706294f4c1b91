package reachac

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"reachac/internal/generate"
	"reachac/internal/graph"
	"reachac/internal/replica"
	"reachac/internal/wal"
	"reachac/internal/workload"
)

func loadTestTopology() generate.Topology {
	return generate.MustNew("osn",
		generate.WithNodes(250), generate.WithSeed(6), generate.WithAttrs())
}

// TestCreateMatchesFromGraph: Create is FromGraph's durable twin. On the
// attributed osn topology both hold the same counts, names and attributes,
// generated node i is UserID i, and both decide alike, predicates
// included.
func TestCreateMatchesFromGraph(t *testing.T) {
	top := loadTestTopology()
	created, err := Create(filepath.Join(t.TempDir(), "net"), generate.MustBuild(top), WithSync(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer created.Close()
	built := FromGraph(generate.MustBuild(top))
	if created.NumUsers() != built.NumUsers() ||
		created.NumRelationships() != built.NumRelationships() {
		t.Fatalf("created (%d users, %d rels) != built (%d users, %d rels)",
			created.NumUsers(), created.NumRelationships(),
			built.NumUsers(), built.NumRelationships())
	}
	for id := UserID(0); int(id) < built.NumUsers(); id++ {
		got, want := created.Graph().Node(id), built.Graph().Node(id)
		if got.Name != want.Name || !reflect.DeepEqual(got.Attrs, want.Attrs) {
			t.Fatalf("user %d: created %+v, built %+v", id, got, want)
		}
		if len(want.Attrs) == 0 {
			t.Fatalf("user %d has no attributes; the topology should carry them", id)
		}
	}
	for _, i := range []int{0, 41, 249} {
		id, ok := created.UserID(generate.UserName(i))
		if !ok || id != UserID(i) {
			t.Fatalf("user %d resolved to (%d, %v)", i, id, ok)
		}
	}
	for _, nw := range []*Network{created, built} {
		if _, err := nw.Share("album", 3, "friend+[1,2]"); err != nil {
			t.Fatal(err)
		}
		if _, err := nw.Share("party", 5, "friend+[1,2]{age>=40}"); err != nil {
			t.Fatal(err)
		}
	}
	assertSameDecisions(t, "create", created, built, EngineKinds())
}

// TestCreateSurvivesReopen: a created network is its checkpoint, so a
// reopen replays no record group; a mutation after Create is one group.
func TestCreateSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "net")
	top := generate.MustNew("ldbc", generate.WithNodes(400), generate.WithSeed(8))
	nw, err := Create(dir, generate.MustBuild(top), WithSync(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	want := stateSignature(nw)
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(dir, WithSync(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	if rec := back.Recovery(); rec.Groups != 0 || rec.CheckpointSeq == 0 {
		t.Fatalf("recovery after Create: %+v", rec)
	}
	if got := stateSignature(back); got != want {
		t.Fatal("reopened network differs from the created one")
	}
	if back.NumUsers() != 400 || back.NumRelationships() == 0 {
		t.Fatalf("reopened (%d, %d)", back.NumUsers(), back.NumRelationships())
	}
	if err := back.Relate(1, 2, "knows-extra"); err != nil {
		t.Fatal(err)
	}
	want = stateSignature(back)
	if err := back.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if rec := again.Recovery(); rec.Groups != 1 {
		t.Fatalf("recovery after one mutation: %+v", rec)
	}
	if got := stateSignature(again); got != want {
		t.Fatal("mutation after Create lost on reopen")
	}
}

// TestCreateRefuses: Create never overwrites a network (a directory with a
// record group or a checkpoint keeps its state and its epoch), and a
// follower is not created from a graph.
func TestCreateRefuses(t *testing.T) {
	g := func() *graph.Graph { return generate.MustBuild(loadTestTopology()) }

	grouped := t.TempDir()
	n, err := Open(grouped)
	if err != nil {
		t.Fatal(err)
	}
	n.MustAddUser("existing")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	checkpointed := t.TempDir()
	n, err = Create(checkpointed, g())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name  string
		dir   string
		users int
	}{{"record-group", grouped, 1}, {"checkpoint", checkpointed, 250}} {
		epoch, err := replica.ReadEpoch(c.dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Create(c.dir, g()); err == nil {
			t.Fatalf("%s: Create accepted a directory holding a network", c.name)
		}
		if e, err := replica.ReadEpoch(c.dir); err != nil || e != epoch {
			t.Fatalf("%s: refused Create moved the epoch %d -> %d (%v)", c.name, epoch, e, err)
		}
		back, err := Open(c.dir)
		if err != nil {
			t.Fatalf("%s: reopen after refused Create: %v", c.name, err)
		}
		if back.NumUsers() != c.users {
			t.Fatalf("%s: %d users after refused Create, want %d", c.name, back.NumUsers(), c.users)
		}
		back.Close()
	}

	follow := filepath.Join(t.TempDir(), "follower")
	if _, err := Create(follow, g(), WithFollow("127.0.0.1:1")); err == nil {
		t.Fatal("Create accepted WithFollow")
	}
	if _, err := os.Stat(follow); !os.IsNotExist(err) {
		t.Fatalf("refused follower Create touched its directory: %v", err)
	}
}

// TestCreateIdleCloseWritesNoSecondCheckpoint: Create's checkpoint leaves
// the log clean, so an idle Checkpoint and Close rewrite nothing.
func TestCreateIdleCloseWritesNoSecondCheckpoint(t *testing.T) {
	dir := t.TempDir()
	n, err := Create(dir, generate.MustBuild(loadTestTopology()))
	if err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.Checkpoints != 1 {
		t.Fatalf("Create wrote %d checkpoints, want 1", st.Checkpoints)
	}
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.Checkpoints != 1 || st.CheckpointsSkipped != 1 {
		t.Fatalf("idle Checkpoint after Create was not skipped: %+v", st)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.Checkpoints != 1 {
		t.Fatalf("idle Close wrote a checkpoint: %+v", st)
	}
	segs, ckpts, err := wal.ListDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 1 || len(segs) != 1 || segs[0] != ckpts[0]+1 {
		t.Fatalf("directory after idle Close: segments %v, checkpoints %v", segs, ckpts)
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
