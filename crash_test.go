package reachac

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"reachac/internal/core"
	"reachac/internal/generate"
	"reachac/internal/graph"
	"reachac/internal/replica"
	"reachac/internal/wal"
)

// ---------------------------------------------------------------------------
// Deterministic trace generation
//
// A trace is a sequence of steps; each step is ONE commit — a single mutator
// call or a small Batch — so step i corresponds 1:1 to WAL record group i.
// The generator tracks its own model of the network so every generated step
// applies cleanly, and the same seed always yields the same trace; the
// crash tests rely on both properties to rebuild reference networks that
// replay exactly the surviving prefix.
// ---------------------------------------------------------------------------

type traceAction struct {
	kind                string // add-user, relate, unrelate, share, revoke
	user                string
	from, to, label     string
	resource, ruleOwner string
	paths               []string
	ruleRes, ruleID     string
}

// traceStep is one commit: a batch of 1..3 actions.
type traceStep struct {
	actions []traceAction
}

type traceModel struct {
	rng       *rand.Rand
	users     []string
	edges     map[string]bool // "from|label|to"
	resources map[string]string
	rules     []struct{ res, id string }
	nextUser  int
	nextRes   int
	nextRule  int
}

var traceLabels = []string{"friend", "colleague", "family"}

var tracePaths = []string{
	"friend+[1,1]",
	"friend+[1,2]",
	"colleague+[1,1]",
	"friend+[1,1]/colleague+[1,1]",
	"family+[1,2]",
}

func newTraceModel(seed int64) *traceModel {
	return &traceModel{
		rng:       rand.New(rand.NewSource(seed)),
		edges:     make(map[string]bool),
		resources: make(map[string]string),
	}
}

// next generates one step (1..3 actions, mostly 1) that is guaranteed to
// apply cleanly on any network that has replayed the preceding steps.
func (m *traceModel) next() traceStep {
	var step traceStep
	count := 1
	if m.rng.Intn(5) == 0 {
		count = 2 + m.rng.Intn(2)
	}
	for i := 0; i < count; i++ {
		step.actions = append(step.actions, m.nextAction())
	}
	return step
}

func (m *traceModel) nextAction() traceAction {
	for {
		switch m.rng.Intn(10) {
		case 0, 1, 2: // add-user
			name := fmt.Sprintf("u%04d", m.nextUser)
			m.nextUser++
			m.users = append(m.users, name)
			return traceAction{kind: "add-user", user: name}
		case 3, 4, 5, 6: // relate
			if len(m.users) < 2 {
				continue
			}
			for try := 0; try < 10; try++ {
				from := m.users[m.rng.Intn(len(m.users))]
				to := m.users[m.rng.Intn(len(m.users))]
				label := traceLabels[m.rng.Intn(len(traceLabels))]
				key := from + "|" + label + "|" + to
				if from == to || m.edges[key] {
					continue
				}
				m.edges[key] = true
				return traceAction{kind: "relate", from: from, to: to, label: label}
			}
			continue
		case 7: // unrelate
			if len(m.edges) == 0 {
				continue
			}
			keys := make([]string, 0, len(m.edges))
			for k := range m.edges {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			key := keys[m.rng.Intn(len(keys))]
			delete(m.edges, key)
			parts := strings.SplitN(key, "|", 3)
			return traceAction{kind: "unrelate", from: parts[0], to: parts[2], label: parts[1]}
		case 8: // share
			if len(m.users) == 0 {
				continue
			}
			// Reuse an existing resource (same owner) half the time.
			var res, owner string
			if len(m.resources) > 0 && m.rng.Intn(2) == 0 {
				names := make([]string, 0, len(m.resources))
				for r := range m.resources {
					names = append(names, r)
				}
				sort.Strings(names)
				res = names[m.rng.Intn(len(names))]
				owner = m.resources[res]
			} else {
				res = fmt.Sprintf("res%03d", m.nextRes)
				m.nextRes++
				owner = m.users[m.rng.Intn(len(m.users))]
				m.resources[res] = owner
			}
			m.nextRule++
			id := fmt.Sprintf("rule-%d", m.nextRule)
			m.rules = append(m.rules, struct{ res, id string }{res, id})
			paths := []string{tracePaths[m.rng.Intn(len(tracePaths))]}
			if m.rng.Intn(4) == 0 {
				paths = append(paths, tracePaths[m.rng.Intn(len(tracePaths))])
			}
			return traceAction{kind: "share", resource: res, ruleOwner: owner, paths: paths}
		default: // revoke
			if len(m.rules) == 0 {
				continue
			}
			i := m.rng.Intn(len(m.rules))
			r := m.rules[i]
			m.rules = append(m.rules[:i], m.rules[i+1:]...)
			return traceAction{kind: "revoke", ruleRes: r.res, ruleID: r.id}
		}
	}
}

// makeTrace generates steps steps from seed.
func makeTrace(seed int64, steps int) []traceStep {
	m := newTraceModel(seed)
	out := make([]traceStep, steps)
	for i := range out {
		out[i] = m.next()
	}
	return out
}

// applyStep commits one step to a network as a single batch. The generator
// guarantees every action applies cleanly; any error is a test failure.
func applyStep(n *Network, step traceStep) error {
	return n.Batch(func(tx *Tx) error {
		for _, a := range step.actions {
			if err := applyAction(tx, a); err != nil {
				return fmt.Errorf("%s: %w", a.kind, err)
			}
		}
		return nil
	})
}

func applyAction(tx *Tx, a traceAction) error {
	lookup := func(name string) (UserID, error) {
		id, ok := tx.n.g.NodeByName(name)
		if !ok {
			return 0, fmt.Errorf("unknown user %q", name)
		}
		return id, nil
	}
	switch a.kind {
	case "add-user":
		_, err := tx.AddUser(a.user)
		return err
	case "relate":
		from, err := lookup(a.from)
		if err != nil {
			return err
		}
		to, err := lookup(a.to)
		if err != nil {
			return err
		}
		return tx.Relate(from, to, a.label)
	case "unrelate":
		from, err := lookup(a.from)
		if err != nil {
			return err
		}
		to, err := lookup(a.to)
		if err != nil {
			return err
		}
		return tx.Unrelate(from, to, a.label)
	case "share":
		owner, err := lookup(a.ruleOwner)
		if err != nil {
			return err
		}
		_, err = tx.Share(a.resource, owner, a.paths...)
		return err
	case "revoke":
		if !tx.Revoke(a.ruleRes, a.ruleID) {
			return fmt.Errorf("rule %s/%s absent", a.ruleRes, a.ruleID)
		}
		return nil
	default:
		return fmt.Errorf("unknown action %q", a.kind)
	}
}

// replayPrefix builds a fresh in-memory network holding the first n steps.
func replayPrefix(t *testing.T, trace []traceStep, n int) *Network {
	t.Helper()
	ref := New()
	for i := 0; i < n; i++ {
		if err := applyStep(ref, trace[i]); err != nil {
			t.Fatalf("reference replay step %d: %v", i, err)
		}
	}
	return ref
}

// stateSignature canonically dumps a network's structural + policy state:
// users, live edges (by endpoint names and label), resources and rule IDs.
// Two networks with equal signatures hold the same logical state and must
// produce equal decisions.
func stateSignature(n *Network) string {
	var b strings.Builder
	g := n.Graph()
	for _, name := range g.SortedNodeNames() {
		b.WriteString("u:" + name + "\n")
	}
	var edges []string
	g.Edges(func(e graph.Edge) bool {
		edges = append(edges, g.EdgeString(e))
		return true
	})
	sort.Strings(edges)
	for _, e := range edges {
		b.WriteString("e:" + e + "\n")
	}
	b.WriteString("p:" + policyShape(n) + "\n")
	return b.String()
}

// assertSameDecisions asserts got and want agree on the basic structural
// counters and on (resource, requester) decisions, and that got decides as
// the two library engines do on want's state (see libraryEngines). Small
// networks are checked exhaustively; large ones are stride-sampled
// (deterministically) to keep the cross product of resources × requesters
// bounded.
func assertSameDecisions(t *testing.T, label string, got, want *Network) {
	t.Helper()
	if got.NumUsers() != want.NumUsers() || got.NumRelationships() != want.NumRelationships() {
		t.Fatalf("%s: structure (%d users, %d rels) vs reference (%d users, %d rels)",
			label, got.NumUsers(), got.NumRelationships(), want.NumUsers(), want.NumRelationships())
	}
	gotRes, wantRes := got.Store().Resources(), want.Store().Resources()
	if fmt.Sprint(gotRes) != fmt.Sprint(wantRes) {
		t.Fatalf("%s: resources %v vs reference %v", label, gotRes, wantRes)
	}
	checkRes := sampleResources(wantRes, 20)
	requesters := sampleUsers(want.NumUsers(), 30)
	for _, res := range checkRes {
		for _, u := range requesters {
			dg, err := got.CanAccess(string(res), u)
			if err != nil {
				t.Fatalf("%s: recovered CanAccess(%s,%d): %v", label, res, u, err)
			}
			dw, err := want.CanAccess(string(res), u)
			if err != nil {
				t.Fatalf("%s: reference CanAccess(%s,%d): %v", label, res, u, err)
			}
			if dg.Effect != dw.Effect || dg.RuleID != dw.RuleID {
				t.Fatalf("%s: CanAccess(%s,%d) = (%v,%q), reference (%v,%q)",
					label, res, u, dg.Effect, dg.RuleID, dw.Effect, dw.RuleID)
			}
		}
	}
	assertLibrariesAgree(t, label, got, libraryEngines(t, want), checkRes, requesters)
}

// sampleResources returns all resources when few, else an even stride
// sample of max of them (always including the first and last).
func sampleResources(rs []core.ResourceID, max int) []core.ResourceID {
	if len(rs) <= max {
		return rs
	}
	out := make([]core.ResourceID, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, rs[i*(len(rs)-1)/(max-1)])
	}
	return out
}

// sampleUsers returns user IDs 0..n-1 when few, else an even stride sample.
func sampleUsers(n, max int) []UserID {
	if n <= max {
		out := make([]UserID, n)
		for i := range out {
			out[i] = UserID(i)
		}
		return out
	}
	out := make([]UserID, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, UserID(i*(n-1)/(max-1)))
	}
	return out
}

// ---------------------------------------------------------------------------
// Crash-consistency differential: truncate the WAL at every record boundary
// (and at assorted byte offsets inside records) and assert the recovered
// network's decisions equal an in-memory network replaying the surviving
// step prefix, and the library engines' on the same state.
// ---------------------------------------------------------------------------

func TestCrashConsistencyTruncation(t *testing.T) {
	const seed, steps = 7, 26
	trace := makeTrace(seed, steps)

	dir := t.TempDir()
	n, err := Open(dir, WithSync(SyncNever), WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range trace {
		if err := applyStep(n, step); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, "wal-00000001.log")
	offs, err := wal.RecordOffsets(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != steps {
		t.Fatalf("log holds %d records, want %d (1 per step)", len(offs), steps)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	recoverAt := func(t *testing.T, cut int64, wantSteps int, wantTorn bool) {
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, "wal-00000001.log"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		n2, err := Open(dir2)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		defer n2.Close()
		rec := n2.Recovery()
		if rec.Groups != wantSteps {
			t.Fatalf("cut %d: recovered %d steps, want %d", cut, rec.Groups, wantSteps)
		}
		if rec.TornTail != wantTorn {
			t.Fatalf("cut %d: torn = %v, want %v", cut, rec.TornTail, wantTorn)
		}
		ref := replayPrefix(t, trace, wantSteps)
		assertSameDecisions(t, fmt.Sprintf("cut@%d", cut), n2, ref)
	}

	// Every record boundary, torn-free.
	boundaries := append([]int64{0}, offs...)
	for i, cut := range boundaries {
		t.Run(fmt.Sprintf("boundary-%02d", i), func(t *testing.T) {
			recoverAt(t, cut, i, false)
		})
	}
	// Byte-level cuts inside records: the partial record is dropped.
	byteCuts := []struct {
		cut       int64
		wantSteps int
	}{
		{boundaries[1] - 1, 0},               // inside first record's payload
		{boundaries[1] + 3, 1},               // inside second record's header
		{boundaries[steps/2] + 9, steps / 2}, // just past a mid-log header
		{offs[steps-1] - 1, steps - 1},       // one byte short of a clean log
	}
	for _, bc := range byteCuts {
		t.Run(fmt.Sprintf("mid-record-%d", bc.cut), func(t *testing.T) {
			recoverAt(t, bc.cut, bc.wantSteps, true)
		})
	}
}

// ---------------------------------------------------------------------------
// Kill-the-process tests: a child process runs the deterministic workload
// against a real durable network and is SIGKILLed mid-write; the parent then
// recovers the directory and checks the acknowledged-prefix guarantee.
// ---------------------------------------------------------------------------

const (
	crashChildEnv = "REACHAC_CRASH_CHILD_DIR"
	crashCkptEnv  = "REACHAC_CRASH_CHILD_CKPT"
	crashSeed     = 4242
	crashMaxSteps = 4000
)

// TestCrashChildWorkload is the child half of the kill tests: when the env
// var is set it applies the deterministic trace to a durable network rooted
// there, appending one ack byte (fsynced) per acknowledged step, until the
// parent kills it. It is a no-op under normal `go test` runs.
func TestCrashChildWorkload(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("crash child: run by the kill tests")
	}
	opts := []Option{WithSync(SyncAlways)}
	if os.Getenv(crashCkptEnv) != "" {
		opts = append(opts, WithCheckpointEvery(4096))
	} else {
		opts = append(opts, WithCheckpointEvery(0))
	}
	n, err := Open(dir, opts...)
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	acks, err := os.OpenFile(filepath.Join(dir, "acks"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("child acks: %v", err)
	}
	trace := makeTrace(crashSeed, crashMaxSteps)
	for i, step := range trace {
		if err := applyStep(n, step); err != nil {
			t.Fatalf("child step %d: %v", i, err)
		}
		// The mutation is acknowledged (WAL-fsynced); record the ack
		// durably too, so the parent can lower-bound the durable prefix.
		if _, err := acks.Write([]byte{1}); err != nil {
			t.Fatalf("child ack write: %v", err)
		}
		if err := acks.Sync(); err != nil {
			t.Fatalf("child ack sync: %v", err)
		}
	}
	// Ran to completion before the kill landed: that's fine, the parent
	// handles a cleanly-exited child.
	n.Close()
}

// runCrashChild spawns this test binary as the crash child against dir,
// kills it after delay, and returns the durable ack count.
func runCrashChild(t *testing.T, dir string, ckpt bool, delay time.Duration) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashChildWorkload$", "-test.v")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	if ckpt {
		cmd.Env = append(cmd.Env, crashCkptEnv+"=1")
	}
	out := &strings.Builder{}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting crash child: %v", err)
	}
	time.Sleep(delay)
	_ = cmd.Process.Kill() // SIGKILL: no deferred cleanup, no flushing
	err := cmd.Wait()
	if err == nil {
		t.Logf("crash child finished before the kill; validating the complete log")
	} else if !strings.Contains(err.Error(), "killed") && !strings.Contains(err.Error(), "signal") {
		// A child that *failed* (rather than was killed) invalidates the
		// run; its output says why.
		t.Fatalf("crash child failed on its own: %v\n%s", err, out.String())
	}
	info, err := os.Stat(filepath.Join(dir, "acks"))
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatal(err)
	}
	return int(info.Size())
}

func TestKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a subprocess")
	}
	dir := t.TempDir()
	acked := runCrashChild(t, dir, false, 400*time.Millisecond)

	n, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery open after SIGKILL: %v", err)
	}
	defer n.Close()
	rec := n.Recovery()
	// Without checkpoints, recovered groups = durable steps. Everything the
	// child acknowledged must be there; at most the unacknowledged in-flight
	// step may additionally have survived.
	if rec.Groups < acked {
		t.Fatalf("recovered %d steps < %d acknowledged", rec.Groups, acked)
	}
	if rec.Groups > crashMaxSteps {
		t.Fatalf("recovered %d steps > %d generated", rec.Groups, crashMaxSteps)
	}
	t.Logf("child acked %d steps; recovered %d (torn tail: %v)", acked, rec.Groups, rec.TornTail)

	trace := makeTrace(crashSeed, crashMaxSteps)
	ref := replayPrefix(t, trace, rec.Groups)
	assertSameDecisions(t, "kill", n, ref)
}

func TestKillRecoveryWithCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a subprocess")
	}
	dir := t.TempDir()
	acked := runCrashChild(t, dir, true, 600*time.Millisecond)

	n, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery open after SIGKILL: %v", err)
	}
	defer n.Close()
	rec := n.Recovery()
	t.Logf("child acked %d steps; checkpoint seq %d, %d tail steps (torn: %v)",
		acked, rec.CheckpointSeq, rec.Groups, rec.TornTail)

	// With checkpoints the recovered group count covers only the log tail,
	// so locate the durable step count by scanning the deterministic trace
	// for the prefix whose state matches the recovered network. Monotonic
	// counters (users ever added, rules ever issued) pin the candidate
	// range; full decision equality then proves the match.
	trace := makeTrace(crashSeed, crashMaxSteps)
	want := stateSignature(n)
	ref := New()
	matched := -1
	for i := 0; i <= crashMaxSteps; i++ {
		if i >= acked && stateSignature(ref) == want {
			matched = i
			break
		}
		if i == crashMaxSteps {
			break
		}
		if err := applyStep(ref, trace[i]); err != nil {
			t.Fatalf("reference step %d: %v", i, err)
		}
	}
	if matched < 0 {
		t.Fatalf("no trace prefix matches the recovered state (users=%d rels=%d, acked=%d)",
			n.NumUsers(), n.NumRelationships(), acked)
	}
	t.Logf("recovered state matches trace prefix of %d steps", matched)
	assertSameDecisions(t, "kill-ckpt", n, ref)
}

// policyShape canonically renders resources with their rule IDs.
func policyShape(n *Network) string {
	var b strings.Builder
	s := n.Store()
	for _, res := range s.Resources() {
		b.WriteString(string(res))
		b.WriteByte('(')
		for _, r := range s.RulesFor(res) {
			b.WriteString(r.ID)
			b.WriteByte(',')
		}
		b.WriteString(") ")
	}
	return b.String()
}

// TestCreateCrashStates builds, file by file, each directory state a crash
// inside Create can leave: after the log's open (the epoch file and an
// empty first segment), after the rotation, with a torn checkpoint.tmp
// beside the rotated log, and after the checkpoint's rename. Each must
// recover either empty, after which a retried Create succeeds, or whole,
// after which Create refuses; either way the directory ends whole and its
// chain verifies.
func TestCreateCrashStates(t *testing.T) {
	build := func() *graph.Graph {
		return generate.MustBuild(generate.MustNew("osn",
			generate.WithNodes(120), generate.WithSeed(3), generate.WithAttrs()))
	}
	want := stateSignature(FromGraph(build()))

	// A finished Create writes checkpoint 1 (covering the first segment);
	// its bytes seed the states past the rotation.
	refDir := t.TempDir()
	ref, err := Create(refDir, build())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(wal.CheckpointFile(refDir, 1))
	if err != nil {
		t.Fatal(err)
	}

	empty := []byte{}
	for _, c := range []struct {
		name  string
		files map[string][]byte
		whole bool
	}{
		{"opened", map[string][]byte{"wal-00000001.log": empty}, false},
		{"rotated", map[string][]byte{"wal-00000001.log": empty, "wal-00000002.log": empty}, false},
		{"torn-tmp", map[string][]byte{"wal-00000001.log": empty, "wal-00000002.log": empty,
			"checkpoint.tmp": ckpt[:len(ckpt)/2]}, false},
		{"renamed", map[string][]byte{"wal-00000001.log": empty, "wal-00000002.log": empty,
			"checkpoint-00000001.ckpt": ckpt}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := replica.WriteEpoch(dir, 1); err != nil {
				t.Fatal(err)
			}
			for name, data := range c.files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			n, err := Open(dir)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			got, rec := stateSignature(n), n.Recovery()
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			if c.whole {
				if got != want || rec.CheckpointSeq != 1 {
					t.Fatalf("recovered %+v, not the whole network", rec)
				}
				if _, err := Create(dir, build()); err == nil {
					t.Fatal("Create accepted a directory holding the whole network")
				}
			} else {
				if n.NumUsers() != 0 || rec.CheckpointSeq != 0 || rec.Groups != 0 {
					t.Fatalf("recovered %d users (%+v), want empty", n.NumUsers(), rec)
				}
				n, err := Create(dir, build())
				if err != nil {
					t.Fatalf("retried Create: %v", err)
				}
				if err := n.Close(); err != nil {
					t.Fatal(err)
				}
			}
			back, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			got = stateSignature(back)
			if err := back.Close(); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatal("directory does not hold the whole network")
			}
			if _, err := VerifyChain(dir); err != nil {
				t.Fatalf("VerifyChain: %v", err)
			}
		})
	}
}
