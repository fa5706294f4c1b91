package reachac

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// The durable formats are pinned against files an earlier build wrote:
// testdata/format-v1 holds the checkpoint and the WAL tail left by
// formatTraceHead, an explicit Checkpoint and formatTraceTail, and the
// SaveState stream of the network that wrote them. Regenerate them only
// when the format changes on purpose: run both halves of the trace on
// Open(dir, WithSync(SyncAlways), WithCheckpointEvery(0)) with a
// Checkpoint between them, copy the directory's *.ckpt and *.log files
// while it is still open, and write its SaveState to state.ckpt.

var formatNames = []string{"alice", "bob", "<carol&dave>", "émile", "line sep", "tab\tname", `quote"back\slash`, "日本"}

var formatLabels = []string{"friend", "colleague", "parent", "<follows>"}

var formatPaths = []string{"friend+[1,2]", "colleague+[1,1]{age>22}", "friend+[1,1]/parent+[1,1]", `parent-[1,2]{city!="paris"}`, "friend+[1,3]{n<30}"}

// formatTraceHead adds users with every kind of attribute, relates them,
// shares resources and revokes a rule, one call or one batch at a time.
func formatTraceHead(n *Network) error {
	scores := []float64{1e21, 1e-7, -0.0, 0.5, 3e-9, 123456789.25, -1e300, 0}
	for i, name := range formatNames {
		attrs := []Attr{
			StringAttr("city", []string{"paris", "<a&b>", "", "zürich"}[i%4]),
			IntAttr("age", 20+i),
			NumberAttr("score", scores[i%len(scores)]),
			BoolAttr("active", i%2 == 0),
		}
		if _, err := n.AddUser(name, attrs[:i%5]...); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(7))
	if err := n.Batch(func(tx *Tx) error {
		for i := 0; i < 40; i++ {
			if _, err := tx.AddUser(fmt.Sprintf("u%02d", i), IntAttr("n", i)); err != nil {
				return err
			}
		}
		for i := 0; i < 120; i++ {
			// Self and duplicate relationships are refused and skipped.
			_ = tx.Relate(UserID(rng.Intn(48)), UserID(rng.Intn(48)), formatLabels[rng.Intn(len(formatLabels))])
		}
		return nil
	}); err != nil {
		return err
	}
	for i := 0; i < 6; i++ {
		if _, err := n.Share(fmt.Sprintf("res-%d", i), UserID(i), formatPaths[i%len(formatPaths)], formatPaths[(i+1)%len(formatPaths)]); err != nil {
			return err
		}
	}
	rule, err := n.Share("res-0", 0, "friend+[1,3]")
	if err != nil {
		return err
	}
	if !n.Revoke("res-0", rule) {
		return fmt.Errorf("revoke %s failed", rule)
	}
	return nil
}

// formatTraceTail unrelates, resets the policy store, and shares again.
func formatTraceTail(n *Network) error {
	rng := rand.New(rand.NewSource(11))
	removed := 0
	for removed < 10 {
		from, to := UserID(rng.Intn(48)), UserID(rng.Intn(48))
		if n.Unrelate(from, to, formatLabels[rng.Intn(len(formatLabels))]) == nil {
			removed++
		}
	}
	var policies bytes.Buffer
	if err := n.SavePolicies(&policies); err != nil {
		return err
	}
	if _, err := n.Share("res-late", 3, "colleague+[1,2]"); err != nil {
		return err
	}
	if err := n.LoadPolicies(&policies); err != nil { // drops res-late again
		return err
	}
	if _, err := n.Share("res-after-reset", 5, "friend+[1,2]/colleague+[1,1]"); err != nil {
		return err
	}
	return n.Relate(1, 2, "friend-of-a-kind")
}

// TestFormatWrittenByEarlierBuildRecovers opens the checkpoint and WAL tail
// in testdata/format-v1 and requires the state the trace builds in memory:
// the same decisions, and a SaveState stream byte-identical both to the one
// the earlier build wrote and to the in-memory network's.
func TestFormatWrittenByEarlierBuildRecovers(t *testing.T) {
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join("testdata", "format-v1", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files: %v", err)
	}
	var state []byte
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(f) == "state.ckpt" {
			state = data
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if rec := recovered.Recovery(); rec.CheckpointSeq == 0 || rec.Groups == 0 {
		t.Fatalf("recovery %+v did not use both a checkpoint and a log tail", rec)
	}

	live := New()
	if err := formatTraceHead(live); err != nil {
		t.Fatal(err)
	}
	if err := formatTraceTail(live); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := recovered.SaveState(&got); err != nil {
		t.Fatal(err)
	}
	if err := live.SaveState(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), state) {
		t.Error("the recovered network's SaveState differs from the earlier build's")
	}
	if !bytes.Equal(want.Bytes(), state) {
		t.Error("the in-memory network's SaveState differs from the earlier build's")
	}
	if recovered.NumUsers() != live.NumUsers() || recovered.NumRelationships() != live.NumRelationships() {
		t.Fatalf("recovered %d users and %d relationships, memory holds %d and %d",
			recovered.NumUsers(), recovered.NumRelationships(), live.NumUsers(), live.NumRelationships())
	}
	resources := live.Store().Resources()
	if len(resources) == 0 {
		t.Fatal("the trace shared nothing")
	}
	allowed := 0
	for _, res := range resources {
		for u := 0; u < live.NumUsers(); u++ {
			want, err := live.CanAccess(string(res), UserID(u))
			if err != nil {
				t.Fatal(err)
			}
			got, err := recovered.CanAccess(string(res), UserID(u))
			if err != nil {
				t.Fatal(err)
			}
			if got.Effect != want.Effect {
				t.Fatalf("%s for user %d: recovered %v, memory %v", res, u, got.Effect, want.Effect)
			}
			if got.Effect == Allow {
				allowed++
			}
		}
	}
	if allowed == 0 {
		t.Fatal("no decision allowed: the comparison is vacuous")
	}
}
