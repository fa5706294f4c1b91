package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"reachac/internal/generate"
	"reachac/internal/pathexpr"
)

// tiny is an embedded workload small enough for a unit test that still has
// every operation family.
var tiny = workloadSpec{
	name: "tiny", nodes: 400, resources: 8, catalog: defaultCatalog(),
	mix: mix{check: 0.5, batch: 0.1, toggle: 0.2, churn: 0.2},
}

func tinyAdjacency(t *testing.T, seed int64) *adjacency {
	t.Helper()
	top, err := generate.New("ldbc", generate.WithNodes(tiny.nodes), generate.WithDegree(8), generate.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	g, err := generate.Build(top)
	if err != nil {
		t.Fatal(err)
	}
	return newAdjacency(g)
}

// stream draws n operations, acknowledging each (shares get a rule ID that
// is a function of the position), and returns them rendered.
func stream(g *generator, n int) []string {
	out := make([]string, n)
	for i := range out {
		o := g.next()
		out[i] = fmt.Sprintf("%d %d %d %v %d %d %s %s %s", o.kind, o.res, o.requester, o.batch, o.from, o.to, o.label, o.path, o.rule)
		g.done(&o, fmt.Sprintf("rule-%d", i), nil)
	}
	return out
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	adj := tinyAdjacency(t, 1)
	specs := makeSpecs(&tiny, adj, 2)
	if !reflect.DeepEqual(specs, makeSpecs(&tiny, adj, 2)) {
		t.Fatal("makeSpecs is not a function of its seed")
	}
	a := stream(newGenerator(&tiny, adj, specs, 3, 0, 2), 2000)
	b := stream(newGenerator(&tiny, adj, specs, 3, 0, 2), 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and worker gave different operation streams")
	}
	c := stream(newGenerator(&tiny, adj, specs, 4, 0, 2), 2000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same operation stream")
	}
}

func TestPinScheduleCountsOperations(t *testing.T) {
	adj := tinyAdjacency(t, 1)
	pinned := tiny
	pinned.pinEvery = 100
	g := newGenerator(&pinned, adj, makeSpecs(&pinned, adj, 2), 3, 0, 1)
	for i := 1; i <= 1000; i++ {
		o := g.next()
		if got, want := o.kind == opPin, i%100 == 0; got != want {
			t.Fatalf("operation %d: pin = %v, want %v", i, got, want)
		}
		g.done(&o, fmt.Sprintf("rule-%d", i), nil)
	}
}

func TestWorkersMutateDisjointKeys(t *testing.T) {
	adj := tinyAdjacency(t, 1)
	specs := makeSpecs(&tiny, adj, 2)
	const workers = 3
	for w := 0; w < workers; w++ {
		g := newGenerator(&tiny, adj, specs, 5, w, workers)
		live := 0
		for i := 0; i < 5000; i++ {
			o := g.next()
			switch o.kind {
			case opRelate, opUnrelate:
				if int(o.from)%workers != w {
					t.Fatalf("worker %d toggles an edge from node %d", w, o.from)
				}
				if o.kind == opRelate && adj.has(o.from, o.to, o.label) {
					t.Fatalf("worker %d relates an edge the graph already has", w)
				}
			case opShare, opRevoke:
				if o.res%workers != w {
					t.Fatalf("worker %d churns resource %d", w, o.res)
				}
			}
			g.done(&o, fmt.Sprintf("rule-%d", i), nil)
			live = max(live, len(g.edges))
			if len(g.edges) > liveEdges || len(g.rules) > liveRules {
				t.Fatalf("worker %d holds %d edges and %d rules live", w, len(g.edges), len(g.rules))
			}
		}
		if live != liveEdges {
			t.Fatalf("worker %d never filled its edge window (%d live)", w, live)
		}
	}
}

// fakeClock advances only when told to, by a sleep, or by being read: every
// reading costs a microsecond, which is what lets a spin make progress.
type fakeClock struct {
	t     time.Time
	slept time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(time.Microsecond)
	return c.t
}

func (c *fakeClock) sleep(d time.Duration) {
	c.slept += d
	c.t = c.t.Add(d + 500*time.Microsecond) // sleeps wake late
}

func TestPacerScheduleIgnoresOperationDuration(t *testing.T) {
	start := time.Unix(1000, 0)
	clock := &fakeClock{t: start}
	p := &pacer{start: start, interval: 250 * time.Microsecond, now: clock.now, sleep: clock.sleep}
	durations := []time.Duration{10 * time.Microsecond, 3 * time.Millisecond, 0, 40 * time.Microsecond, 900 * time.Microsecond, 0, 0}
	for k, took := range durations {
		due := p.claim()
		if want := start.Add(time.Duration(k) * p.interval); !due.Equal(want) {
			t.Fatalf("request %d is due at +%v, want +%v", k, due.Sub(start), want.Sub(start))
		}
		p.wait(due)
		if clock.t.Before(due) {
			t.Fatalf("request %d was released %v early", k, due.Sub(clock.t))
		}
		clock.t = clock.t.Add(took)
	}
	if clock.slept != 0 {
		t.Fatalf("slept %v although no request was further away than the sleep margin", clock.slept)
	}

	// A request far in the future is slept towards, but only up to the margin.
	far := clock.t.Add(10 * time.Millisecond)
	p.wait(far)
	if clock.slept != 10*time.Millisecond-sleepMargin-time.Microsecond {
		t.Fatalf("slept %v towards a request 10 ms away", clock.slept)
	}
	if late := clock.t.Sub(far); late < 0 || late > 2*time.Microsecond {
		t.Fatalf("released %v after the intended time", late)
	}
}

func TestHistQuantilesInterpolate(t *testing.T) {
	var h hist
	for i := 1; i <= 10000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 5000e3}, {0.9, 9000e3}, {0.99, 9900e3}} {
		if got := h.quantile(c.q); math.Abs(got-c.want)/c.want > 0.02 {
			t.Errorf("quantile(%v) = %v ns, want %v within 2 %%", c.q, got, c.want)
		}
	}
	if (&hist{}).quantile(0.5) != 0 {
		t.Error("empty histogram's quantile is not 0")
	}
}

func TestSummaryTakesMediansOverSlices(t *testing.T) {
	r := phaseResult{sliceS: 0.5, slices: make([]sliceStat, 5)}
	oks := []uint64{100, 5, 300, 200, 250} // one bad slice must not decide
	lat := []time.Duration{10, 900, 30, 20, 25}
	for i := range r.slices {
		r.slices[i].ok = oks[i]
		for n := 0; n < 100; n++ {
			r.slices[i].check.record(lat[i] * time.Microsecond)
		}
	}
	s := r.summarize()
	if s.opsPerS != 400 {
		t.Errorf("ops_per_s = %v, want the median slice rate 200/0.5 s", s.opsPerS)
	}
	if math.Abs(s.checkP50-25) > 0.5 || math.Abs(s.checkP99-25) > 0.5 {
		t.Errorf("check p50/p99 = %v/%v us, want the median slice's 25", s.checkP50, s.checkP99)
	}
	if s.checks != 500 || s.writes != 0 || s.writeP50 != 0 {
		t.Errorf("samples: %d checks, %d writes, write p50 %v", s.checks, s.writes, s.writeP50)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	us := int64(time.Microsecond)
	spans := []span{
		// op 1: call 100 ⊃ roundtrip 70 ⊃ handler 20
		{name: spanClientCall, op: 1, start: 0, stop: 100 * us},
		{name: spanRoundTrip, parent: spanClientCall, op: 1, start: 10 * us, stop: 80 * us},
		{name: spanHandlerCheck, parent: spanRoundTrip, op: 1, start: 30 * us, stop: 50 * us},
		// op 2: call 60 ⊃ roundtrip 50, its handler span missing
		{name: spanClientCall, op: 2, start: 200 * us, stop: 260 * us},
		{name: spanRoundTrip, parent: spanClientCall, op: 2, start: 205 * us, stop: 255 * us},
		// op 3: an embedded call, no children
		{name: spanLibraryCall, op: 3, start: 300 * us, stop: 304 * us},
	}
	total, self := spanTimes(spans)
	want := map[string][]float64{
		spanClientCall:   {30, 10},
		spanRoundTrip:    {50, 50},
		spanHandlerCheck: {20},
		spanLibraryCall:  {4},
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if !reflect.DeepEqual(total[spanClientCall], []float64{100, 60}) {
		t.Errorf("client.call durations = %v", total[spanClientCall])
	}
}

// handGraph builds a reference graph from "from label to" triples.
func handGraph(n int, edges ...[3]any) *refGraph {
	g := &refGraph{out: make([][]refEdge, n), in: make([][]refEdge, n)}
	for _, e := range edges {
		from, label, to := uint32(e[0].(int)), e[1].(string), uint32(e[2].(int))
		g.out[from] = append(g.out[from], refEdge{to, label})
		g.in[to] = append(g.in[to], refEdge{from, label})
	}
	return g
}

func TestReferenceEvaluator(t *testing.T) {
	// 0 -friend-> 1 -friend-> 2 -friend-> 3, 1 -colleague-> 4, 5 -friend-> 0
	g := handGraph(6,
		[3]any{0, "friend", 1}, [3]any{1, "friend", 2}, [3]any{2, "friend", 3},
		[3]any{1, "colleague", 4}, [3]any{5, "friend", 0})
	for _, c := range []struct {
		path             string
		owner, requester uint32
		want             bool
	}{
		{"friend+[1]", 0, 1, true},
		{"friend+[1]", 0, 2, false},
		{"friend+[1,2]", 0, 2, true},
		{"friend+[1,2]", 0, 3, false},
		{"friend+[2,3]", 0, 1, false}, // below the minimum depth
		{"friend+[2,3]", 0, 3, true},
		{"friend+[1,*]", 0, 3, true},
		{"friend-[1]", 0, 5, true},
		{"friend-[1]", 0, 1, false}, // wrong direction
		{"friend*[1]", 0, 5, true},
		{"friend*[1]", 0, 1, true},
		{"friend+[1,2]/colleague+[1]", 0, 4, true},
		{"friend+[2]/colleague+[1]", 0, 4, false}, // the colleague edge leaves node 1, not 2
		{"colleague+[1]", 0, 4, false},
		{"friend-[1]/friend+[1]", 0, 0, true}, // 0 <-friend- 5 -friend-> 0: a walk may come back to the owner
		{"enemy+[1]", 0, 1, false},
	} {
		p, err := pathexpr.Parse(c.path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.reachable(c.owner, c.requester, p)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s from %d to %d: got %v, want %v", c.path, c.owner, c.requester, got, c.want)
		}
	}

	pols := map[string]refPolicy{"doc": {owner: 0, rules: [][]*pathexpr.Path{
		{pathexpr.MustParse("friend+[1]"), pathexpr.MustParse("colleague+[1]")}, // nobody is both
		{pathexpr.MustParse("friend+[2]")},
	}}}
	for requester, want := range map[uint32]bool{0: true, 1: false, 2: true, 4: false} {
		if got, _ := g.decide(pols, "doc", requester); got != want {
			t.Errorf("doc for %d: got %v, want %v", requester, got, want)
		}
	}
	if got, _ := g.decide(pols, "other", 0); got {
		t.Error("an unregistered resource was allowed")
	}
	if _, err := g.reachable(0, 1, pathexpr.MustParse("friend+[1]{age>=18}")); err == nil {
		t.Error("a predicate was silently ignored")
	}
}

// TestHarnessOnTinyWorkload drives the real set-up, a mixed phase, decision
// verification and the layer replay on a graph of a few hundred nodes.
func TestHarnessOnTinyWorkload(t *testing.T) {
	e, err := setup(&tiny, 7, 2, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	r := run(e, e.tgt, phase{dur: 300 * time.Millisecond, slice: 100 * time.Millisecond})
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.firstErr)
	}
	if s := r.summarize(); s.opsPerS <= 0 || s.checkP50 <= 0 || s.writeP50 <= 0 || len(r.slices) != 3 {
		t.Fatalf("summary %+v over %d slices", s, len(r.slices))
	}
	paced := run(e, e.tgt, phase{dur: 200 * time.Millisecond, slice: 100 * time.Millisecond, rate: 5000})
	if paced.failed != 0 || paced.attempted != 1000 || paced.late.n != 1000 {
		t.Fatalf("paced phase: %d attempted, %d failed, %d lateness samples; want 1000, 0, 1000", paced.attempted, paced.failed, paced.late.n)
	}
	checked, allows, mismatches, err := verifyDecisions(e)
	if err != nil || checked != verifyPairs || len(mismatches) != 0 {
		t.Fatalf("verification: %d checked, mismatches %v, err %v", checked, mismatches, err)
	}
	if allows == 0 || allows == checked {
		t.Fatalf("verification sample has %d allows of %d: it cannot tell a broken evaluator", allows, checked)
	}
	m := &layers{v: make(map[string]float64), n: make(map[string]uint64)}
	if err := replayLayers(e, m, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"reachac.check_us", "search.reachable_us", "reachac.mutate_us", "graph.clone_ms", "wal.append_us", "wal.bytes_per_mut", "pathexpr.parse_us", "httpapi.codec_us"} {
		if m.v[name] <= 0 {
			t.Errorf("%s = %v", name, m.v[name])
		}
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, the program has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, listed []metric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics listed, the program prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if want := (metric{d.name, d.unit, d.better, d.bound}); listed[i] != want {
				t.Errorf("%s metric %d is %+v, the program prints %+v", kind, i, listed[i], want)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}
