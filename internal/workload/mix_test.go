package workload

import (
	"reflect"
	"testing"

	"reachac/internal/generate"
	"reachac/internal/graph"
)

func mixGraph() *graph.Graph {
	return generate.MustBuild(generate.MustNew("osn", generate.WithNodes(400), generate.WithSeed(42)))
}

// TestGeneratorDeterministic: the same seed and configuration must yield
// the identical operation stream — the property the bench artifact's
// comparability rests on.
func TestGeneratorDeterministic(t *testing.T) {
	g := mixGraph()
	specs := Scenario{}.Resources(g, 24, 5)
	for _, sc := range Scenarios() {
		mix := sc.Mix
		t.Run(mix.Name, func(t *testing.T) {
			cfg := GenConfig{Resources: specs, Worker: 1, Workers: 4}
			a := NewGenerator(g, mix, cfg, 99)
			b := NewGenerator(g, mix, cfg, 99)
			for i := 0; i < 5000; i++ {
				oa, ob := a.Next(), b.Next()
				if !reflect.DeepEqual(oa, ob) {
					t.Fatalf("op %d diverged: %+v vs %+v", i, oa, ob)
				}
			}
			c := NewGenerator(g, mix, cfg, 100)
			same := true
			for i := 0; i < 200; i++ {
				if !reflect.DeepEqual(a.Next(), c.Next()) {
					same = false
					break
				}
			}
			if same {
				t.Fatal("different seeds produced the same 200-op stream")
			}
		})
	}
}

// TestGeneratorMixRatios: the generated kind frequencies must track the
// mix weights.
func TestGeneratorMixRatios(t *testing.T) {
	g := mixGraph()
	specs := Scenario{}.Resources(g, 24, 5)
	const n = 20000
	for _, tc := range []struct {
		mix    Mix
		kind   OpKind
		lo, hi float64
	}{
		{mustMix(t, "read-heavy"), OpCheck, 0.92, 0.98},
		{mustMix(t, "write-heavy"), OpCheck, 0.45, 0.55},
		{mustMix(t, "check-batch"), OpCheckBatch, 1, 1},
		{mustMix(t, "audience-scan"), OpAudience, 0.70, 0.80},
	} {
		gen := NewGenerator(g, tc.mix, GenConfig{Resources: specs}, 3)
		count := 0
		for i := 0; i < n; i++ {
			if gen.Next().Kind == tc.kind {
				count++
			}
		}
		frac := float64(count) / n
		if frac < tc.lo || frac > tc.hi {
			t.Errorf("%s: %v fraction %.3f outside [%v, %v]", tc.mix.Name, tc.kind, frac, tc.lo, tc.hi)
		}
	}
}

func mustMix(t *testing.T, name string) Mix {
	t.Helper()
	sc, ok := Lookup(name)
	if !ok {
		t.Fatalf("missing scenario %q", name)
	}
	return sc.Mix
}

// TestGeneratorMutateToggle: relate/unrelate ops must balance — every
// unrelate removes an edge a preceding relate of the SAME generator
// added, and the live count never exceeds the window.
func TestGeneratorMutateToggle(t *testing.T) {
	g := mixGraph()
	specs := Scenario{}.Resources(g, 8, 5)
	gen := NewGenerator(g, mustMix(t, "write-heavy"), GenConfig{Resources: specs, LiveEdges: 16}, 7)
	type pair struct {
		from, to graph.NodeID
		label    string
	}
	live := make(map[pair]bool)
	for i := 0; i < 10000; i++ {
		op := gen.Next()
		switch op.Kind {
		case OpRelate:
			p := pair{op.From, op.To, op.RelType}
			if live[p] {
				t.Fatalf("op %d: relate of already-live edge %+v", i, p)
			}
			if g.HasEdge(op.From, op.To, op.RelType) {
				t.Fatalf("op %d: relate collides with initial graph edge %+v", i, p)
			}
			live[p] = true
			if len(live) > 16 {
				t.Fatalf("op %d: live window exceeded: %d", i, len(live))
			}
		case OpUnrelate:
			p := pair{op.From, op.To, op.RelType}
			if !live[p] {
				t.Fatalf("op %d: unrelate of non-live edge %+v", i, p)
			}
			delete(live, p)
		}
	}
	if len(live) == 0 {
		t.Fatal("no edges were live at the end; toggle never warmed up")
	}
}

// TestGeneratorChurnBalance: every revoke targets a resource with an
// outstanding share from this generator, and outstanding shares respect
// the window.
func TestGeneratorChurnBalance(t *testing.T) {
	g := mixGraph()
	specs := Scenario{}.Resources(g, 8, 5)
	gen := NewGenerator(g, mustMix(t, "churn"), GenConfig{Resources: specs, LiveRules: 4}, 7)
	outstanding := make(map[int]int)
	total := 0
	for i := 0; i < 5000; i++ {
		op := gen.Next()
		switch op.Kind {
		case OpShare:
			if op.Owner != specs[op.Resource].Owner {
				t.Fatalf("op %d: share owner %d != spec owner %d", i, op.Owner, specs[op.Resource].Owner)
			}
			if len(op.Paths) == 0 {
				t.Fatalf("op %d: share without paths", i)
			}
			outstanding[op.Resource]++
			total++
		case OpRevoke:
			if outstanding[op.Resource] == 0 {
				t.Fatalf("op %d: revoke on resource %d without outstanding share", i, op.Resource)
			}
			outstanding[op.Resource]--
			total--
		}
		if total > 4 {
			t.Fatalf("op %d: outstanding shares %d exceed window", i, total)
		}
	}
}

// TestGeneratorWorkerPartition: two workers' mutation edges must come
// from disjoint source-node partitions.
func TestGeneratorWorkerPartition(t *testing.T) {
	g := mixGraph()
	specs := Scenario{}.Resources(g, 8, 5)
	mix := mustMix(t, "write-heavy")
	seen := make(map[graph.NodeID]int)
	for w := 0; w < 2; w++ {
		gen := NewGenerator(g, mix, GenConfig{Resources: specs, Worker: w, Workers: 2}, int64(100+w))
		for i := 0; i < 2000; i++ {
			op := gen.Next()
			if op.Kind != OpRelate && op.Kind != OpUnrelate {
				continue
			}
			if int(op.From)%2 != w {
				t.Fatalf("worker %d used out-of-partition source %d", w, op.From)
			}
			if prev, ok := seen[op.From]; ok && prev != w {
				t.Fatalf("source %d used by both workers", op.From)
			}
			seen[op.From] = w
		}
	}
}

func TestResourcesDeterministicAndOwned(t *testing.T) {
	g := mixGraph()
	a, b := Scenario{}.Resources(g, 16, 9), Scenario{}.Resources(g, 16, 9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Resources is not deterministic for a fixed seed")
	}
	for i, spec := range a {
		if spec.Name == "" || len(spec.Paths) == 0 {
			t.Fatalf("spec %d incomplete: %+v", i, spec)
		}
		if g.OutDegree(spec.Owner) == 0 {
			t.Fatalf("spec %d owner %d has no outgoing edges", i, spec.Owner)
		}
	}
}

func TestOpKindString(t *testing.T) {
	for k := OpCheck; k <= OpRevoke; k++ {
		if s := k.String(); s == "" || s[0] == 'O' {
			t.Fatalf("OpKind %d has bad name %q", k, s)
		}
	}
	if OpKind(200).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}
