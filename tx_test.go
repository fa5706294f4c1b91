package reachac

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
	"reachac/internal/wal"
)

// refTx is the reference a durable Tx's log is checked against: it builds
// the []wal.Op list of a batch as a list of operations, the way the log
// was written before batches encoded their record group as they applied.
// Each applied mutation appends its operation; a failed sub-transaction
// drops its operations but its node additions, which it marks as ghosts;
// a failed batch logs its node additions alone.
type refTx struct {
	ops   []wal.Op
	ghost []bool
}

func (r *refTx) add(op wal.Op) {
	r.ops = append(r.ops, op)
	r.ghost = append(r.ghost, false)
}

func (r *refTx) subFailed(mark int) {
	kept, ghost := r.ops[:mark], r.ghost[:mark]
	for _, op := range r.ops[mark:] {
		if op.Kind == wal.OpGraph && op.Delta.Op == graph.OpAddNode {
			kept, ghost = append(kept, op), append(ghost, true)
		}
	}
	r.ops, r.ghost = kept, ghost
}

// acked counts the batch's operations that are not ghosts: what Stats
// counts as Mutations when the batch commits.
func (r *refTx) acked() (n int) {
	for _, g := range r.ghost {
		if !g {
			n++
		}
	}
	return n
}

// txTrace drives random Tx mutations against a network and records each
// applied one in a refTx.
type txTrace struct {
	rng   *rand.Rand
	n     *Network
	ref   *refTx
	users int
	res   []string
	// acked sums the committed batches' acknowledged mutations.
	acked int
}

var errTxFail = errors.New("tx trace: failing on purpose")

var txLabels = []string{"friend", "colleague", "parent"}

var txPaths = []string{"friend+[1,2]", "colleague+[1]/friend-[1]", "parent+[1,*]{age>=18}"}

func (tr *txTrace) user() UserID { return UserID(tr.rng.Intn(tr.users + 2)) }

// mutate applies one random mutation in tx; an error is the mutation's own
// (a duplicate, an unknown user or relationship), and applied nothing.
func (tr *txTrace) mutate(tx *Tx) error {
	g := tr.n.Graph()
	switch tr.rng.Intn(10) {
	case 0, 1:
		name := fmt.Sprintf("u%d", tr.rng.Intn(tr.users+8))
		var attrs []Attr
		if tr.rng.Intn(2) == 0 {
			attrs = append(attrs, NumberAttr("age", float64(tr.rng.Intn(80))))
		}
		if tr.rng.Intn(3) == 0 {
			attrs = append(attrs, StringAttr("city", "paris"))
		}
		id, err := tx.AddUser(name, attrs...)
		if err != nil {
			return err
		}
		tr.users = max(tr.users, int(id)+1)
		tr.ref.add(wal.GraphOp(graph.Delta{Op: graph.OpAddNode, Name: name, Attrs: g.Node(id).Attrs}))
	case 2, 3, 4:
		from, to, label := tr.user(), tr.user(), txLabels[tr.rng.Intn(len(txLabels))]
		if err := tx.Relate(from, to, label); err != nil {
			return err
		}
		tr.ref.add(wal.GraphOp(graph.Delta{Op: graph.OpAddEdge, From: from, To: to, Label: label}))
	case 5, 6:
		from, to, label := tr.user(), tr.user(), txLabels[tr.rng.Intn(len(txLabels))]
		if g.NumEdges() > 0 && tr.rng.Intn(4) > 0 {
			// Mostly an edge that exists.
			var edges []graph.Edge
			g.Edges(func(e graph.Edge) bool { edges = append(edges, e); return true })
			e := edges[tr.rng.Intn(len(edges))]
			from, to, label = e.From, e.To, g.LabelName(e.Label)
		}
		if err := tx.Unrelate(from, to, label); err != nil {
			return err
		}
		tr.ref.add(wal.GraphOp(graph.Delta{Op: graph.OpRemoveEdge, From: from, To: to, Label: label}))
	case 7, 8:
		res := fmt.Sprintf("res%d", tr.rng.Intn(6))
		owner, path := tr.user(), txPaths[tr.rng.Intn(len(txPaths))]
		id, err := tx.Share(res, owner, path)
		if err != nil {
			return err
		}
		tr.ref.add(wal.ShareOp(res, owner, id, []string{pathexpr.MustParse(path).String()}))
		tr.res = append(tr.res, res, id)
	default:
		if len(tr.res) == 0 {
			return nil
		}
		i := 2 * tr.rng.Intn(len(tr.res)/2)
		res, id := tr.res[i], tr.res[i+1]
		if !tx.Revoke(res, id) {
			return fmt.Errorf("no rule %s on %s", id, res)
		}
		tr.ref.add(wal.RevokeOp(res, id))
	}
	return nil
}

// sub runs one random sub-transaction, which fails half the time and may
// nest sub-transactions of its own up to depth 2, and drops what a failed
// one drops from the reference.
func (tr *txTrace) sub(tx *Tx, depth int) {
	mark := len(tr.ref.ops)
	failSub := tr.rng.Intn(2) == 0
	if err := tx.Sub(func(tx *Tx) error {
		for i := tr.rng.Intn(5); i >= 0; i-- {
			if depth < 2 && tr.rng.Intn(4) == 0 {
				tr.sub(tx, depth+1)
				continue
			}
			if err := tr.mutate(tx); err != nil {
				return err
			}
		}
		if failSub {
			return errTxFail
		}
		return nil
	}); err != nil {
		tr.ref.subFailed(mark)
	}
}

// batch runs one random Batch: mutations and sub-transactions, some of
// which fail, and a callback that fails sometimes. It appends what the
// reference logs for the batch to ref, and returns the Batch error.
func (tr *txTrace) batch(ref *wal.Log) error {
	tr.ref = &refTx{}
	failBatch := tr.rng.Intn(5) == 0
	err := tr.n.Batch(func(tx *Tx) error {
		for step := tr.rng.Intn(12); step >= 0; step-- {
			if tr.rng.Intn(3) > 0 {
				_ = tr.mutate(tx)
				continue
			}
			tr.sub(tx, 0)
		}
		if failBatch {
			return errTxFail
		}
		return nil
	})
	if err != nil {
		tr.ref.subFailed(0)
	} else {
		tr.acked += tr.ref.acked()
	}
	if len(tr.ref.ops) > 0 {
		if rerr := ref.Append(tr.ref.ops); rerr != nil {
			return rerr
		}
	}
	if err != nil && !errors.Is(err, errTxFail) {
		return err
	}
	return nil
}

// TestTxLogMatchesReference runs random Tx traces — node additions,
// relationship additions and removals, shares and revokes, failing
// sub-transactions, nested ones included, and failing callbacks — on a
// durable network, and requires Stats to count the acknowledged mutations
// the reference counts, the segment it writes to equal, byte for byte, the
// segment a log writes for the reference's operation lists, and a reopen
// to recover the live state.
func TestTxLogMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		dir, refDir := t.TempDir(), t.TempDir()
		n, err := Open(dir, WithSync(SyncNever), WithCheckpointEvery(0))
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := wal.Open(refDir, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		tr := &txTrace{rng: rand.New(rand.NewSource(seed)), n: n}
		for b := 0; b < 60; b++ {
			if err := tr.batch(ref); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, b, err)
			}
		}
		if got := n.Stats().Mutations; got != uint64(tr.acked) {
			t.Fatalf("seed %d: Stats counts %d mutations, the reference %d", seed, got, tr.acked)
		}
		live := txState(n)
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "wal-00000001.log"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(refDir, "wal-00000001.log"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: the Tx log (%d bytes) differs from the reference (%d bytes) at byte %d",
				seed, len(got), len(want), firstDiffAt(got, want))
		}
		n2, err := Open(dir)
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		recovered := txState(n2)
		n2.Close()
		if !slices.Equal(recovered, live) {
			t.Fatalf("seed %d: the reopened state differs from the live state:\nlive      %q\nrecovered %q", seed, live, recovered)
		}
	}
}

func firstDiffAt(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestTxRollbackRestoresState applies N random mutations, sub-transactions
// included, in a batch whose callback then fails, and requires the
// relationships, their weights and the rules to be exactly what they were.
func TestTxRollbackRestoresState(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		const users = 12
		for i := 0; i < users; i++ {
			g.MustAddNode(fmt.Sprintf("u%d", i), nil)
		}
		for i := 0; i < 40; i++ {
			from, to := graph.NodeID(rng.Intn(users)), graph.NodeID(rng.Intn(users))
			_, _ = g.AddWeightedEdge(from, to, txLabels[rng.Intn(len(txLabels))], float64(rng.Intn(4))/2)
		}
		n := FromGraph(g)
		tr := &txTrace{rng: rng, n: n, users: users - 2, ref: &refTx{}}
		for i := 0; i < 5; i++ {
			_ = n.Batch(func(tx *Tx) error { return tr.mutate(tx) })
		}
		before := txState(n)
		err := n.Batch(func(tx *Tx) error {
			for i := 0; i < 30+rng.Intn(30); i++ {
				if rng.Intn(4) == 0 {
					_ = tx.Sub(func(tx *Tx) error {
						_ = tr.mutate(tx)
						if rng.Intn(2) == 0 {
							return errTxFail
						}
						return nil
					})
					continue
				}
				_ = tr.mutate(tx)
			}
			return errTxFail
		})
		if !errors.Is(err, errTxFail) {
			t.Fatalf("seed %d: Batch error %v", seed, err)
		}
		// Users the batch added stay, isolated: the graph never removes a
		// node.
		isUser := func(line string) bool { return strings.HasPrefix(line, "user ") }
		before = slices.DeleteFunc(before, isUser)
		if after := slices.DeleteFunc(txState(n), isUser); !slices.Equal(after, before) {
			t.Fatalf("seed %d: rollback changed the state:\nbefore %q\nafter  %q", seed, before, after)
		}
	}
}

// txState describes a network's state in lines: its members in ID order
// with their attributes, its live relationships with their weights, and
// each resource's owner and rules. Edge IDs and the order of a resource's
// rules are left out: a rolled-back removal re-adds a relationship or rule
// after the others, where a replay, which never sees the removal, keeps it
// in place.
func txState(n *Network) []string {
	var s []string
	g := n.Graph()
	g.Nodes(func(node graph.Node) bool {
		s = append(s, fmt.Sprintf("user %d %s %v", node.ID, node.Name, node.Attrs))
		return true
	})
	var edges []string
	g.Edges(func(e graph.Edge) bool {
		edges = append(edges, fmt.Sprintf("edge %d-%s->%d w=%g", e.From, g.LabelName(e.Label), e.To, e.Weight))
		return true
	})
	slices.Sort(edges)
	s = append(s, edges...)
	store := n.Store()
	res := store.Resources()
	slices.Sort(res)
	for _, r := range res {
		owner, _ := store.Owner(r)
		var rules []string
		for _, rule := range store.RulesFor(r) {
			rules = append(rules, fmt.Sprintf("rule %s %s %v", r, rule.ID, rule.Conditions))
		}
		slices.Sort(rules)
		s = append(s, fmt.Sprintf("resource %s owner %d", r, owner))
		s = append(s, rules...)
	}
	return s
}
