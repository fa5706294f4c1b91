package reachac

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"reachac/internal/generate"
	"reachac/internal/replica"
	"reachac/internal/wal"
)

// serveLeader mounts a durable network's replication source on a test server.
func serveLeader(t *testing.T, n *Network) *httptest.Server {
	t.Helper()
	src := n.ReplicaSource()
	if src == nil {
		t.Fatal("durable network has no replica source")
	}
	mux := http.NewServeMux()
	src.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// waitReplicaCaughtUp polls until the follower has applied everything the
// leader has made durable.
func waitReplicaCaughtUp(t *testing.T, follower, leader *Network) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		lst := leader.Stats()
		rs := follower.ReplicaStatus()
		if rs.AppliedSeq > lst.WALSegmentSeq ||
			(rs.AppliedSeq == lst.WALSegmentSeq && rs.AppliedOff >= lst.WALSegmentBytes) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower never caught up: follower %+v, leader at (%d,%d)",
		follower.ReplicaStatus(), leader.Stats().WALSegmentSeq, leader.Stats().WALSegmentBytes)
}

// TestReplicaDifferentialAllEngines drives the deterministic trace through a
// leader, catches the follower up after every committed step, and asserts
// the replicated state decides identically to the leader and to both
// library engines on the leader's state — with a follower restart
// mid-stream, after which the two
// directories must hold byte-identical logs.
func TestReplicaDifferentialAllEngines(t *testing.T) {
	const seed, steps, restartAt = 11, 14, 7
	trace := makeTrace(seed, steps)

	ldir := t.TempDir()
	leader, err := Open(ldir, WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	srv := serveLeader(t, leader)

	fdir := t.TempDir()
	follower, err := Open(fdir, WithFollow(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	for i, step := range trace {
		if err := applyStep(leader, step); err != nil {
			t.Fatalf("leader step %d: %v", i, err)
		}
		if i == restartAt {
			// Mid-stream restart: the reopened follower recovers its local
			// mirror and resumes from its own cursor.
			if err := follower.Close(); err != nil {
				t.Fatalf("follower close at step %d: %v", i, err)
			}
			follower, err = Open(fdir, WithFollow(srv.URL))
			if err != nil {
				t.Fatalf("follower reopen at step %d: %v", i, err)
			}
			defer follower.Close()
		}
		waitReplicaCaughtUp(t, follower, leader)
		assertSameDecisions(t, fmt.Sprintf("step %d", i), follower, leader)
	}

	// The mirror is byte-identical, not just decision-identical.
	want, err := os.ReadFile(filepath.Join(ldir, "wal-00000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(fdir, "wal-00000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("follower log (%d bytes) differs from leader log (%d bytes)", len(got), len(want))
	}

	// Both chains verify offline — after closing, so the locks are released.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{ldir, fdir} {
		if _, err := VerifyChain(dir); err != nil {
			t.Fatalf("VerifyChain(%s): %v", dir, err)
		}
	}
}

// TestReplicaBootstrapsFromCreatedLeader: a follower of a Created leader
// bootstraps from the leader's first checkpoint, then follows its log; it
// decides as the leader does after further leader steps, and both chains
// verify.
func TestReplicaBootstrapsFromCreatedLeader(t *testing.T) {
	ldir := t.TempDir()
	g := generate.MustBuild(generate.MustNew("osn", generate.WithNodes(80), generate.WithSeed(5)))
	leader, err := Create(ldir, g, WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if _, err := leader.Share("wall", 0, "friend+[1,2]"); err != nil {
		t.Fatal(err)
	}
	srv := serveLeader(t, leader)

	fdir := t.TempDir()
	follower, err := Open(fdir, WithFollow(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if rec := follower.Recovery(); rec.CheckpointSeq == 0 {
		t.Fatalf("follower did not bootstrap from the leader's checkpoint: %+v", rec)
	}
	waitReplicaCaughtUp(t, follower, leader)
	assertSameDecisions(t, "bootstrap", follower, leader)
	for i, step := range makeTrace(13, 10) {
		if err := applyStep(leader, step); err != nil {
			t.Fatalf("leader step %d: %v", i, err)
		}
		waitReplicaCaughtUp(t, follower, leader)
		assertSameDecisions(t, fmt.Sprintf("step %d", i), follower, leader)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{ldir, fdir} {
		if _, err := VerifyChain(dir); err != nil {
			t.Fatalf("VerifyChain(%s): %v", dir, err)
		}
	}
}

// TestReplicaRejectsMutations: a follower is read-only end to end.
func TestReplicaRejectsMutations(t *testing.T) {
	leader, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if _, err := leader.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	srv := serveLeader(t, leader)
	follower, err := Open(t.TempDir(), WithFollow(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitReplicaCaughtUp(t, follower, leader)

	if _, err := follower.AddUser("bob"); !errorsIsReadOnly(err) {
		t.Fatalf("AddUser on follower: %v, want ErrReadOnly", err)
	}
	if err := follower.Batch(func(tx *Tx) error { return nil }); !errorsIsReadOnly(err) {
		t.Fatalf("Batch on follower: %v, want ErrReadOnly", err)
	}
	if err := follower.LoadPolicies(strings.NewReader("{}")); !errorsIsReadOnly(err) {
		t.Fatalf("LoadPolicies on follower: %v, want ErrReadOnly", err)
	}
	// A follower has no local appending WAL, so Checkpoint refuses too
	// (as not-durable rather than read-only — either way, rejected).
	if err := follower.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on follower succeeded")
	}
	// Reads work: the replicated user resolves.
	if _, ok := follower.UserID("alice"); !ok {
		t.Fatal("replicated user alice not readable on follower")
	}
	st := follower.Stats()
	if !st.Follower || st.ReplicaEpoch == 0 {
		t.Fatalf("follower stats %+v: want Follower=true and a nonzero epoch", st)
	}
}

func errorsIsReadOnly(err error) bool {
	return err != nil && strings.Contains(err.Error(), ErrReadOnly.Error())
}

// TestReplicaTransientTailLoss is the regression test for leader-loss
// degradation: when the leader becomes unreachable the follower keeps
// serving its last applied state with the staleness surfaced — connected
// again, it converges with no gap and no duplication.
func TestReplicaTransientTailLoss(t *testing.T) {
	const seed = 23
	trace := makeTrace(seed, 12)

	leader, err := Open(t.TempDir(), WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	src := leader.ReplicaSource()
	mux := http.NewServeMux()
	src.Register(mux)

	// A stable URL whose backend can be yanked: down => connections fail.
	var down atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			// Sever the connection without a well-formed response.
			hj, ok := w.(http.Hijacker)
			if ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()

	follower, err := Open(t.TempDir(), WithFollow(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	for i := 0; i < 6; i++ {
		if err := applyStep(leader, trace[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitReplicaCaughtUp(t, follower, leader)
	usersBefore := follower.NumUsers()

	// Yank the leader. The follower must degrade, not die. The long-poll
	// already in flight drains first (it was accepted before the outage),
	// so wait for the disconnect before advancing the leader.
	down.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for {
		rs := follower.ReplicaStatus()
		if !rs.Connected && rs.Err != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never noticed the dead leader: %+v", rs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	rs := follower.ReplicaStatus()
	if rs.Halted {
		t.Fatalf("a dead leader is transient, not fatal: %+v", rs)
	}
	for i := 6; i < 12; i++ {
		if err := applyStep(leader, trace[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Reads still serve the pre-outage state, and staleness grows.
	if got := follower.NumUsers(); got != usersBefore {
		t.Fatalf("outage changed follower state: %d users, had %d", got, usersBefore)
	}
	stale1 := follower.Stats().ReplicaStalenessMS
	time.Sleep(30 * time.Millisecond)
	stale2 := follower.Stats().ReplicaStalenessMS
	if stale2 <= stale1 {
		t.Fatalf("staleness did not grow during the outage: %d then %d ms", stale1, stale2)
	}

	// Heal. The follower converges to the full 12-step state.
	down.Store(false)
	waitReplicaCaughtUp(t, follower, leader)
	rs = follower.ReplicaStatus()
	if !rs.Connected || rs.Err != "" || rs.Halted {
		t.Fatalf("healed follower status %+v", rs)
	}
	ref := replayPrefix(t, trace, 12)
	assertSameDecisions(t, "post-heal", follower, ref)
}

// ---------------------------------------------------------------------------
// Follower SIGKILL: a child process tails a leader served by the parent and
// is killed mid-replication; the reopened directory must recover and resume
// to exact convergence — shipped bytes are fsynced before they are applied,
// so recovery never replays less than what was acknowledged into state.
// ---------------------------------------------------------------------------

const (
	replChildDirEnv    = "REACHAC_REPL_CHILD_DIR"
	replChildLeaderEnv = "REACHAC_REPL_CHILD_LEADER"
)

// TestReplicaChildFollower is the child half: it follows the parent's leader
// until killed. A no-op under normal test runs.
func TestReplicaChildFollower(t *testing.T) {
	dir := os.Getenv(replChildDirEnv)
	if dir == "" {
		t.Skip("replica child: run by TestReplicaKillFollower")
	}
	n, err := Open(dir, WithFollow(os.Getenv(replChildLeaderEnv)))
	if err != nil {
		t.Fatalf("child follower open: %v", err)
	}
	defer n.Close()
	time.Sleep(30 * time.Second) // replicate until the parent kills us
}

func TestReplicaKillFollower(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a subprocess")
	}
	const seed, steps = 31, 400
	trace := makeTrace(seed, steps)
	leader, err := Open(t.TempDir(), WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	srv := serveLeader(t, leader)

	fdir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestReplicaChildFollower$", "-test.v")
	cmd.Env = append(os.Environ(), replChildDirEnv+"="+fdir, replChildLeaderEnv+"="+srv.URL)
	out := &strings.Builder{}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Feed the leader while the child replicates, then kill the child cold.
	for i, step := range trace {
		if err := applyStep(leader, step); err != nil {
			t.Fatalf("leader step %d: %v", i, err)
		}
		if i == steps/2 {
			time.Sleep(50 * time.Millisecond) // let the child get mid-stream
		}
	}
	time.Sleep(100 * time.Millisecond)
	_ = cmd.Process.Kill()
	if err := cmd.Wait(); err == nil {
		t.Log("child exited before the kill; continuing with its directory")
	} else if !strings.Contains(err.Error(), "killed") && !strings.Contains(err.Error(), "signal") {
		t.Fatalf("child failed on its own: %v\n%s", err, out.String())
	}

	// The killed follower's directory reopens (possibly with a torn tail,
	// which is dropped) and resumes to convergence.
	follower, err := Open(fdir, WithFollow(srv.URL))
	if err != nil {
		t.Fatalf("reopening killed follower dir: %v", err)
	}
	defer follower.Close()
	waitReplicaCaughtUp(t, follower, leader)
	ref := replayPrefix(t, trace, steps)
	assertSameDecisions(t, "post-kill", follower, ref)

	// And its mirrored log still chain-verifies against the leader's.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	report, err := VerifyChain(fdir)
	if err != nil {
		t.Fatalf("VerifyChain after kill+resume: %v", err)
	}
	if report.Groups != steps {
		t.Fatalf("chain verified %d groups, want %d", report.Groups, steps)
	}
}

// TestPromoteFollower is the failover runbook as a test: kill the leader,
// restart the caught-up follower's directory in leader mode, and keep
// writing — under a higher epoch, with the full history intact.
func TestPromoteFollower(t *testing.T) {
	leader, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	alice, err := leader.AddUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Share("doc", alice, "friend+[1,1]"); err != nil {
		t.Fatal(err)
	}
	srv := serveLeader(t, leader)
	oldEpoch := leader.ReplicaEpoch()

	fdir := t.TempDir()
	follower, err := Open(fdir, WithFollow(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	waitReplicaCaughtUp(t, follower, leader)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}

	// Promotion: an ordinary leader open on the replicated directory.
	promoted, err := Open(fdir)
	if err != nil {
		t.Fatalf("promoting follower dir: %v", err)
	}
	defer promoted.Close()
	if promoted.Follower() {
		t.Fatal("promoted network still reports follower")
	}
	if got := promoted.ReplicaEpoch(); got <= oldEpoch {
		t.Fatalf("promoted epoch %d does not supersede the dead leader's %d", got, oldEpoch)
	}
	if _, ok := promoted.UserID("alice"); !ok {
		t.Fatal("promoted leader lost replicated user alice")
	}
	// It accepts writes and serves followers of its own.
	if _, err := promoted.AddUser("bob"); err != nil {
		t.Fatalf("promoted leader rejects writes: %v", err)
	}
	if promoted.ReplicaSource() == nil {
		t.Fatal("promoted leader is not followable")
	}
}

// TestFencedLeaderRejectsWrites is the split-brain regression test: a leader
// that keeps serving after its follower was promoted must fence itself the
// moment a replication request proves a higher epoch exists — from then on
// every mutation is ErrReadOnly, while reads (and the old history's tail)
// keep serving. Two daemons over the same shipped history: old leader A,
// promoted follower B.
func TestFencedLeaderRejectsWrites(t *testing.T) {
	a, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	alice, err := a.AddUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Share("doc", alice, "friend+[1,1]"); err != nil {
		t.Fatal(err)
	}
	srvA := serveLeader(t, a)

	bdir := t.TempDir()
	follower, err := Open(bdir, WithFollow(srvA.URL))
	if err != nil {
		t.Fatal(err)
	}
	waitReplicaCaughtUp(t, follower, a)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	// Promote B while A is STILL SERVING — the failover scenario fencing
	// exists for. B's leader open bumps the shared history's epoch past A's.
	b, err := Open(bdir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.ReplicaEpoch() <= a.ReplicaEpoch() {
		t.Fatalf("promoted epoch %d does not supersede %d", b.ReplicaEpoch(), a.ReplicaEpoch())
	}

	// A request carrying a LOWER epoch (a lagging stale replica) conflicts
	// but proves nothing newer: A must keep accepting writes.
	rc := replica.NewClient(srvA.URL, nil)
	if _, err := rc.Tail(context.Background(), a.ReplicaEpoch()-1, 1, 0, 0); err == nil {
		t.Fatal("lower-epoch tail did not conflict")
	}
	if a.Fenced() {
		t.Fatal("lower-epoch request fenced the leader")
	}
	if _, err := a.AddUser("bob"); err != nil {
		t.Fatalf("unfenced leader rejects writes: %v", err)
	}

	// A request carrying B's HIGHER epoch (B's own replica chain, or a
	// health prober pointed at the new leadership) fences A.
	if _, err := rc.Tail(context.Background(), b.ReplicaEpoch(), 1, 0, 0); err == nil {
		t.Fatal("higher-epoch tail did not conflict")
	}
	if !a.Fenced() {
		t.Fatal("higher-epoch request did not fence the leader")
	}
	if _, err := a.AddUser("carol"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("AddUser on fenced leader: %v, want ErrReadOnly", err)
	}
	if err := a.Batch(func(tx *Tx) error { return nil }); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Batch on fenced leader: %v, want ErrReadOnly", err)
	}
	// Reads keep serving the pre-failover state.
	if _, ok := a.UserID("alice"); !ok {
		t.Fatal("fenced leader lost read access to alice")
	}
	st := a.Stats()
	if !st.Fenced || st.FencedByEpoch != b.ReplicaEpoch() {
		t.Fatalf("fenced stats %+v: want Fenced=true by epoch %d", st, b.ReplicaEpoch())
	}
	// The new leader keeps accepting writes, and the old history survived
	// the handoff.
	if _, err := b.AddUser("dave"); err != nil {
		t.Fatalf("promoted leader rejects writes: %v", err)
	}
	if _, ok := b.UserID("alice"); !ok {
		t.Fatal("promoted leader lost replicated user alice")
	}

	// ObserveEpoch is idempotent and monotonic; stale observations after
	// fencing change nothing, and non-durable networks never fence.
	if !a.ObserveEpoch(b.ReplicaEpoch() - 1) {
		t.Fatal("fenced leader forgot it was fenced")
	}
	mem := New()
	if mem.ObserveEpoch(99) || mem.Fenced() {
		t.Fatal("non-durable network fenced itself")
	}
}

// TestVerifyChainFacade pins the offline verifier's facade behavior: a clean
// directory verifies; one flipped byte anywhere is located.
func TestVerifyChainFacade(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(dir, WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	trace := makeTrace(3, 8)
	for _, step := range trace {
		if err := applyStep(n, step); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	report, err := VerifyChain(dir)
	if err != nil {
		t.Fatalf("clean dir: %v", err)
	}
	if report.Groups != 8 {
		t.Fatalf("verified %d groups, want 8", report.Groups)
	}

	seg := filepath.Join(dir, "wal-00000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), data...)
	tampered[len(tampered)/2] ^= 0x01
	if err := os.WriteFile(seg, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyChain(dir); err == nil {
		t.Fatal("flipped byte went undetected")
	} else {
		var ce *wal.ChainError
		if !errors.As(err, &ce) {
			t.Fatalf("tamper error %v is not a *wal.ChainError", err)
		}
	}
}
