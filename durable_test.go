package reachac

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reachac/internal/wal"
)

// buildDurable populates a durable network with a small scenario and returns
// the IDs the assertions need.
func buildDurable(t *testing.T, n *Network) (alice, bob, carol UserID) {
	t.Helper()
	alice = n.MustAddUser("alice")
	bob = n.MustAddUser("bob")
	carol = n.MustAddUser("carol")
	if err := n.Relate(alice, bob, "friend"); err != nil {
		t.Fatal(err)
	}
	if err := n.Relate(bob, carol, "friend"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Share("photo", alice, "friend+[1,1]"); err != nil {
		t.Fatal(err)
	}
	return
}

func TestOpenCloseReopen(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !n.Durable() {
		t.Fatal("Open returned a non-durable network")
	}
	alice, bob, carol := buildDurable(t, n)
	if d, _ := n.CanAccess("photo", bob); d.Effect != Allow {
		t.Fatal("bob denied before close")
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Mutations after Close fail; reads keep working.
	if _, err := n.AddUser("dave"); err == nil {
		t.Fatal("AddUser after Close succeeded")
	}
	if d, _ := n.CanAccess("photo", bob); d.Effect != Allow {
		t.Fatal("read after Close broke")
	}

	for _, kind := range EngineKinds() {
		n2, err := Open(dir, WithEngine(kind))
		if err != nil {
			t.Fatalf("reopen with %v: %v", kind, err)
		}
		if n2.EngineKind() != kind {
			t.Fatalf("engine %v not selected", kind)
		}
		rec := n2.Recovery()
		if rec.Groups == 0 || rec.TornTail {
			t.Fatalf("unexpected recovery info %+v", rec)
		}
		if n2.NumUsers() != 3 || n2.NumRelationships() != 2 {
			t.Fatalf("recovered %d users %d rels", n2.NumUsers(), n2.NumRelationships())
		}
		for u, want := range map[UserID]uint8{alice: 1, bob: 1, carol: 0} {
			d, err := n2.CanAccess("photo", u)
			if err != nil {
				t.Fatal(err)
			}
			if (d.Effect == Allow) != (want == 1) {
				t.Fatalf("%v: user %d effect %v", kind, u, d.Effect)
			}
		}
		n2.Close()
	}
}

func TestDurableMutationsAfterReopen(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	alice, bob, _ := buildDurable(t, n)
	n.Close()

	n2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Post-recovery Share must not collide with replayed rule IDs.
	ruleID, err := n2.Share("note", alice, "friend+[1,2]")
	if err != nil {
		t.Fatalf("Share after reopen: %v", err)
	}
	if err := n2.Unrelate(alice, bob, "friend"); err != nil {
		t.Fatal(err)
	}
	n2.Close()

	n3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer n3.Close()
	if n3.NumRelationships() != 1 {
		t.Fatalf("unrelate not recovered: %d rels", n3.NumRelationships())
	}
	if !n3.Revoke("note", ruleID) {
		t.Fatalf("rule %s not recovered", ruleID)
	}
}

func TestBatchIsOneAtomicGroup(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := n.MustAddUser("a")
	b := n.MustAddUser("b")
	base := groupsOnDisk(t, dir)

	// A failed batch must append nothing.
	wantErr := fmt.Errorf("boom")
	if err := n.Batch(func(tx *Tx) error {
		if err := tx.Relate(a, b, "friend"); err != nil {
			return err
		}
		return wantErr
	}); err != wantErr {
		t.Fatalf("Batch error = %v", err)
	}
	if got := groupsOnDisk(t, dir); got != base {
		t.Fatalf("failed batch appended %d groups", got-base)
	}

	// A successful multi-op batch is exactly one group.
	if err := n.Batch(func(tx *Tx) error {
		if err := tx.Relate(a, b, "friend"); err != nil {
			return err
		}
		if _, err := tx.Share("doc", a, "friend+[1,1]"); err != nil {
			return err
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := groupsOnDisk(t, dir); got != base+1 {
		t.Fatalf("batch appended %d groups, want 1", got-base)
	}
	n.Close()

	n2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if d, _ := n2.CanAccess("doc", b); d.Effect != Allow {
		t.Fatal("batched share not recovered")
	}
}

// groupsOnDisk counts the record groups across all live WAL segments.
func groupsOnDisk(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range matches {
		offs, err := wal.RecordOffsets(m)
		if err != nil {
			t.Fatal(err)
		}
		total += len(offs)
	}
	return total
}

func TestAutoCheckpointRotatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(dir, WithSync(SyncNever), WithCheckpointEvery(2048))
	if err != nil {
		t.Fatal(err)
	}
	var users []UserID
	for i := 0; i < 120; i++ {
		u := n.MustAddUser(fmt.Sprintf("user%03d", i))
		users = append(users, u)
		if i > 0 {
			if err := n.Relate(users[i-1], u, "friend"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := n.Share("photo", users[0], "friend+[1,3]"); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close (includes checkpoint errors): %v", err)
	}

	// The log must have been compacted: at least one checkpoint file, and
	// the total segment bytes must be far below the raw append volume.
	ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if len(ckpts) == 0 {
		t.Fatal("no checkpoint written")
	}
	n2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after checkpoints: %v", err)
	}
	defer n2.Close()
	if n2.Recovery().CheckpointSeq == 0 {
		t.Fatal("recovery ignored the checkpoint")
	}
	if n2.NumUsers() != 120 || n2.NumRelationships() != 119 {
		t.Fatalf("recovered %d users %d rels", n2.NumUsers(), n2.NumRelationships())
	}
	if d, _ := n2.CanAccess("photo", users[2]); d.Effect != Allow {
		t.Fatal("decision wrong after checkpointed recovery")
	}
}

func TestManualCheckpoint(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	buildDurable(t, n)
	if err := n.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Everything is in the checkpoint; the live segment holds nothing.
	if got := groupsOnDisk(t, dir); got != 0 {
		t.Fatalf("%d groups on disk after checkpoint, want 0", got)
	}
	n.Close()
	n2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if n2.Recovery().Groups != 0 || n2.Recovery().CheckpointSeq == 0 {
		t.Fatalf("recovery info %+v", n2.Recovery())
	}
	if n2.NumUsers() != 3 {
		t.Fatalf("recovered %d users", n2.NumUsers())
	}
}

func TestDurableLoadPolicies(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	alice, bob, _ := buildDurable(t, n)

	// Build a replacement policy set: same resource, different audience.
	alt := New()
	alt.MustAddUser("alice")
	alt.MustAddUser("bob")
	alt.MustAddUser("carol")
	if _, err := alt.Share("photo", alice, "friend+[1,2]"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := alt.SavePolicies(&buf); err != nil {
		t.Fatal(err)
	}
	if err := n.LoadPolicies(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("LoadPolicies: %v", err)
	}
	n.Close()

	n2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	// Under the replacement policy carol (friend-of-friend) is allowed.
	carol, _ := n2.UserID("carol")
	if d, _ := n2.CanAccess("photo", carol); d.Effect != Allow {
		t.Fatal("policy reset not recovered")
	}
	_ = bob
}

func TestOpenRejectsCorruptMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(dir, WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	buildDurable(t, n)
	n.Close()
	seg := filepath.Join(dir, "wal-00000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the first record's payload, keeping later records intact, by
	// flipping a byte past the first header.
	data[10] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The flip lands in the first frame, so everything after it is dropped
	// as a torn tail... unless records remain, in which case this dir holds
	// ONLY one segment — recovery treats it as the newest and tolerates it.
	n2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over torn single segment: %v", err)
	}
	if !n2.Recovery().TornTail {
		t.Fatal("torn tail not reported")
	}
	if n2.Recovery().Groups != 0 {
		t.Fatalf("recovered %d groups from corrupt-first-record log", n2.Recovery().Groups)
	}
	n2.Close()
}

func TestSecondOpenSameDirIndependent(t *testing.T) {
	// Two sequential Opens of the same dir (not concurrent — the log takes
	// no lock file yet) must each see the other's durable writes.
	dir := t.TempDir()
	n, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	n.MustAddUser("alice")
	n.Close()
	n2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n2.UserID("alice"); !ok {
		t.Fatal("second open missed first open's write")
	}
	n2.MustAddUser("bob")
	n2.Close()
	n3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer n3.Close()
	if n3.NumUsers() != 2 {
		t.Fatalf("third open sees %d users", n3.NumUsers())
	}
}

// TestFailedBatchKeepsReplayAligned pins the ghost-node rule: AddUser is
// not invertible, so a failed batch's node additions stay in memory — and
// must therefore still be logged, or every later node would take a
// different ID under replay than it did live.
func TestFailedBatchKeepsReplayAligned(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	if err := n.Batch(func(tx *Tx) error {
		if _, err := tx.AddUser("ghost"); err != nil {
			return err
		}
		if _, err := tx.Share("orphan", 0, "friend+[1,1]"); err != nil {
			return err
		}
		return boom
	}); err != boom {
		t.Fatalf("Batch error = %v", err)
	}
	// The rolled-back Share's registration is undone with it.
	if _, ok := n.Store().Owner("orphan"); ok {
		t.Fatal("failed batch left its resource registration behind")
	}
	// Acknowledged mutations referencing post-ghost IDs must recover.
	alice := n.MustAddUser("alice")
	bob := n.MustAddUser("bob")
	if err := n.Relate(alice, bob, "friend"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Share("photo", alice, "friend+[1,1]"); err != nil {
		t.Fatal(err)
	}
	n.Close()

	n2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery after failed batch: %v", err)
	}
	defer n2.Close()
	if got, _ := n2.UserID("alice"); got != alice {
		t.Fatalf("alice recovered as %d, was %d live", got, alice)
	}
	if d, _ := n2.CanAccess("photo", bob); d.Effect != Allow {
		t.Fatal("post-ghost decision wrong after recovery")
	}
	if _, ok := n2.UserID("ghost"); !ok {
		t.Fatal("ghost member missing from recovery (ID allocation diverged)")
	}
}

// TestOversizedBatchKeepsNetworkWritable pins that a batch whose record
// group exceeds the log's size limit fails like a callback error: the log
// refused it before writing anything, so the relationship is rolled back,
// the residual node additions are logged in groups under the limit, and the
// network stays writable with a log that recovers every member in memory.
func TestOversizedBatchKeepsNetworkWritable(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(dir, WithSync(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 1000)
	users := wal.MaxRecordSize/len(pad) + 100
	err = n.Batch(func(tx *Tx) error {
		for i := 0; i < users; i++ {
			if _, err := tx.AddUser(fmt.Sprintf("u%06d-%s", i, pad)); err != nil {
				return err
			}
		}
		return tx.Relate(0, 1, "friend")
	})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Batch error = %v, want ErrTooLarge", err)
	}
	if got := n.NumRelationships(); got != 0 {
		t.Fatalf("%d relationships after the oversized batch, want its one rolled back", got)
	}
	if _, err := n.AddUser("late"); err != nil {
		t.Fatalf("AddUser after an oversized batch: %v", err)
	}
	live := n.NumUsers()
	if live != users+1 {
		t.Fatalf("%d users in memory, want %d", live, users+1)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if got := n2.NumUsers(); got != live {
		t.Fatalf("reopen recovered %d users, memory held %d", got, live)
	}
	if id, ok := n2.UserID("late"); !ok || int(id) != users {
		t.Fatalf("late recovered as %d (%v), want %d", id, ok, users)
	}
}

// TestLoadPoliciesSurvivesTriggeredCheckpoint pins the ordering fix: the
// checkpoint a LoadPolicies commit triggers must snapshot the NEW store,
// not the one the logged reset replaced.
func TestLoadPoliciesSurvivesTriggeredCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// Threshold of 1 byte: every commit (including the policy reset
	// itself) triggers a checkpoint+rotation.
	n, err := Open(dir, WithSync(SyncNever), WithCheckpointEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	alice, bob, _ := buildDurable(t, n)
	alt := New()
	alt.MustAddUser("alice")
	alt.MustAddUser("bob")
	alt.MustAddUser("carol")
	if _, err := alt.Share("photo", alice, "friend+[1,2]"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := alt.SavePolicies(&buf); err != nil {
		t.Fatal(err)
	}
	if err := n.LoadPolicies(&buf); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	n2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	carol, _ := n2.UserID("carol")
	if d, _ := n2.CanAccess("photo", carol); d.Effect != Allow {
		t.Fatal("checkpoint snapshotted the pre-reset store; policy reset lost")
	}
	_ = bob
}

// TestOpenLocksDirectory pins the flock: a second Open of a live directory
// must fail cleanly instead of truncating the first opener's log.
func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("second Open of a live directory succeeded")
	}
	n.MustAddUser("alice")
	n.Close()
	// Released on Close: reopening now works.
	n2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	n2.Close()
}

// TestNonDurableUnaffected pins the zero-cost path: New() networks have no
// WAL, Close is a no-op, and mutations never touch disk.
func TestNonDurableUnaffected(t *testing.T) {
	n := New()
	if n.Durable() {
		t.Fatal("New() network claims durability")
	}
	buildDurable(t, n)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddUser("dave"); err != nil {
		t.Fatalf("mutation after no-op Close: %v", err)
	}
	if rec := n.Recovery(); rec.Groups != 0 || rec.TornTail {
		t.Fatalf("non-durable recovery info %+v", rec)
	}
}

func TestSaveStateLoadStateRoundTrip(t *testing.T) {
	n := New()
	alice, bob, carol := buildDurable(t, n)
	var buf bytes.Buffer
	if err := n.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	if !strings.Contains(buf.String(), "reachac-checkpoint-v1") {
		t.Fatal("SaveState stream missing checkpoint magic")
	}
	n2, err := LoadState(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	for u, want := range map[UserID]bool{alice: true, bob: true, carol: false} {
		d, err := n2.CanAccess("photo", u)
		if err != nil {
			t.Fatal(err)
		}
		if (d.Effect == Allow) != want {
			t.Fatalf("user %d effect %v after LoadState", u, d.Effect)
		}
	}
}

// TestCheckpointSkippedWhenClean pins the idle no-op: Checkpoint rewrites
// nothing when no WAL record was appended since the last checkpoint, so an
// idle Close or SIGTERM never rewrites identical checkpoint files.
func TestCheckpointSkippedWhenClean(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// A brand-new empty directory has nothing to checkpoint.
	if err := n.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on empty network: %v", err)
	}
	if st := n.Stats(); st.Checkpoints != 0 || st.CheckpointsSkipped != 1 {
		t.Fatalf("empty checkpoint not skipped: %+v", st)
	}

	buildDurable(t, n)
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st1 := n.Stats()
	if st1.Checkpoints != 1 {
		t.Fatalf("dirty checkpoint not taken: %+v", st1)
	}

	// Nothing appended since: the second call must neither rotate nor write.
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st2 := n.Stats()
	if st2.WALSegmentSeq != st1.WALSegmentSeq {
		t.Fatal("idle Checkpoint rotated the log")
	}
	if st2.Checkpoints != 1 || st2.CheckpointsSkipped != 2 {
		t.Fatalf("idle checkpoint not skipped: %+v", st2)
	}

	// A mutation dirties the log again and the next checkpoint is real.
	n.MustAddUser("dora")
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.Checkpoints != 2 {
		t.Fatalf("post-mutation checkpoint skipped: %+v", st)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if _, ok := n2.UserID("dora"); !ok || n2.NumUsers() != 4 {
		t.Fatalf("recovery after skip/take sequence lost state (%d users)", n2.NumUsers())
	}
}
