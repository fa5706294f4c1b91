package reachac

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"reachac/internal/core"
	"reachac/internal/graph"
	"reachac/internal/replica"
	"reachac/internal/wal"
)

// SyncPolicy selects when the write-ahead log fsyncs appended records; see
// the wal package for the exact guarantees of each policy.
type SyncPolicy = wal.SyncPolicy

// Sync policies, re-exported for Open options.
const (
	// SyncAlways (the default) fsyncs before a mutation is acknowledged;
	// concurrent commits share fsyncs (group commit).
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs on a background cadence; a crash may lose up to
	// one interval of acknowledged mutations.
	SyncInterval = wal.SyncInterval
	// SyncNever leaves fsync to the OS (and to checkpoint/Close).
	SyncNever = wal.SyncNever
)

// DefaultCheckpointEvery is the WAL segment size that triggers a background
// checkpoint and log rotation.
const DefaultCheckpointEvery int64 = 4 << 20

// openConfig collects the constructor options (Open, Create, New,
// FromGraph).
type openConfig struct {
	kind         EngineKind
	sync         SyncPolicy
	syncInterval time.Duration
	ckptEvery    int64
	follow       string
	followHTTP   *http.Client
}

// newOpenConfig folds opts over the defaults.
func newOpenConfig(opts []Option) openConfig {
	cfg := openConfig{kind: Online, sync: SyncAlways, ckptEvery: DefaultCheckpointEvery}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Option configures Open, Create, New and FromGraph.
type Option func(*openConfig)

// WithEngine selects the evaluator kind the recovered network publishes.
func WithEngine(kind EngineKind) Option {
	return func(c *openConfig) { c.kind = kind }
}

// WithSync selects the WAL fsync policy (default SyncAlways).
func WithSync(p SyncPolicy) Option {
	return func(c *openConfig) { c.sync = p }
}

// WithSyncInterval selects SyncInterval with the given cadence.
func WithSyncInterval(d time.Duration) Option {
	return func(c *openConfig) { c.sync = SyncInterval; c.syncInterval = d }
}

// WithCheckpointEvery sets the WAL segment size that triggers a background
// checkpoint (default DefaultCheckpointEvery); zero or negative disables
// automatic checkpoints, leaving compaction to explicit Checkpoint calls.
func WithCheckpointEvery(bytes int64) Option {
	return func(c *openConfig) { c.ckptEvery = bytes }
}

// RecoveryInfo reports what Open reconstructed from the log directory.
type RecoveryInfo struct {
	// Groups counts the replayed WAL record groups — the acknowledged
	// mutation batches since the loaded checkpoint.
	Groups int
	// TornTail reports that the newest segment ended mid-record (a crash
	// during an append); the torn suffix was dropped and truncated away.
	TornTail bool
	// CheckpointSeq is the segment sequence the loaded checkpoint covered
	// (0 when recovery started from an empty state).
	CheckpointSeq uint64
}

// Open opens (creating if absent) a durable network rooted at dir. State is
// recovered as the latest durable checkpoint advanced by a replay of the
// write-ahead log tail — exactly the acknowledged mutation prefix; a torn
// final record (a crash mid-append) is dropped, not fatal — and the engine
// snapshot is built and published before Open returns. Every subsequent
// mutation is appended to the log as one atomic record group before it is
// acknowledged, and a size-triggered background checkpoint compacts and
// rotates the log. Call Close to flush and release the log.
func Open(dir string, opts ...Option) (*Network, error) {
	cfg := newOpenConfig(opts)
	if cfg.follow != "" {
		return openFollower(dir, cfg)
	}
	l, rec, err := wal.Open(dir, wal.Options{Sync: cfg.sync, Interval: cfg.syncInterval})
	if err != nil {
		return nil, err
	}
	return openLeader(dir, l, rec, cfg, false)
}

// Create makes a durable network rooted at dir whose state is g, written
// as the directory's first checkpoint: the durable twin of FromGraph. The
// network takes g over; the caller must not mutate g afterwards. Build g
// with generate.Build or a graph.Loader, so a bulk load never passes
// through the mutation log.
//
// Create refuses a directory whose recovered state is not empty (one with
// a checkpoint or a record group), so it never overwrites a network. A
// directory a crashed Create left behind recovers either empty, and Create
// can be retried on it, or whole. Create refuses WithFollow: a follower is
// born from its leader's checkpoint, not from a graph.
func Create(dir string, g *graph.Graph, opts ...Option) (*Network, error) {
	cfg := newOpenConfig(opts)
	if cfg.follow != "" {
		return nil, errors.New("reachac: Create: a follower bootstraps from its leader; use Open with WithFollow")
	}
	l, rec, err := wal.Open(dir, wal.Options{Sync: cfg.sync, Interval: cfg.syncInterval})
	if err != nil {
		return nil, err
	}
	if rec.CheckpointSeq != 0 || rec.Groups != 0 {
		l.Close()
		return nil, fmt.Errorf("reachac: Create: %s already holds a network (checkpoint %d, %d record groups)",
			dir, rec.CheckpointSeq, rec.Groups)
	}
	rec.Graph, rec.Store = g, core.NewStore()
	return openLeader(dir, l, rec, cfg, true)
}

// openLeader is the body Open and Create share once the log is open: it
// bumps the directory's leadership epoch, builds the network over the
// recovered state and publishes its engine snapshot. With first set
// (Create), the state is written as a checkpoint before the snapshot is
// published. Any failure closes l.
func openLeader(dir string, l *wal.Log, rec wal.Recovered, cfg openConfig, first bool) (*Network, error) {
	// Every leader open bumps the directory's leadership epoch, so a promoted
	// follower (an ordinary restart on the replicated directory) supersedes
	// the leader that shipped it the bytes.
	epoch, err := replica.BumpEpoch(dir)
	if err != nil {
		l.Close()
		return nil, err
	}
	n := newNetwork(rec.Graph, rec.Store)
	n.wal = l
	n.replSource = replica.NewSource(dir, epoch, l)
	// A tail request carrying a higher epoch is proof a newer leadership
	// exists (a promoted follower's replica client, or a re-pointed VIP):
	// fence this leader before it diverges from the new history.
	n.replSource.OnStaleEpoch(func(e uint64) { n.ObserveEpoch(e) })
	n.ckptEvery = cfg.ckptEvery
	n.recovery = RecoveryInfo{Groups: rec.Groups, TornTail: rec.TornTail, CheckpointSeq: rec.CheckpointSeq}
	if first {
		n.mu.Lock()
		write, err := n.checkpointLocked()
		n.mu.Unlock()
		if err == nil {
			err = write()
		}
		if err != nil {
			l.Close()
			return nil, err
		}
	}
	// Republish the snapshot now, so the first read after recovery doesn't
	// pay for the engine build.
	if err := n.UseEngine(cfg.kind); err != nil {
		l.Close()
		return nil, err
	}
	return n, nil
}

// Recovery reports what Open reconstructed; it is the zero value on networks
// not created by Open (Create reports the empty state it started from).
func (n *Network) Recovery() RecoveryInfo { return n.recovery }

// Durable reports whether the network persists mutations to a write-ahead
// log (i.e. was created by Open or Create).
func (n *Network) Durable() bool { return n.wal != nil }

// Close waits for any in-flight checkpoint, flushes and closes the
// write-ahead log. Mutations after Close fail; reads keep serving the
// in-memory state. Close is a no-op on non-durable networks and idempotent.
func (n *Network) Close() error {
	if n.follower != nil {
		return n.closeFollower()
	}
	n.mu.Lock()
	if n.wal == nil || n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	n.ckptWG.Wait()
	err := n.wal.Close()
	n.ckptMu.Lock()
	if err == nil {
		err = n.ckptErr
	}
	n.ckptMu.Unlock()
	return err
}

// Checkpoint synchronously compacts the log: it waits for any background
// checkpoint, rotates the WAL and writes a durable checkpoint of the current
// state, after which the superseded segments are deleted. Writers wait only
// for the rotation and the state clone; the write itself runs off the
// mutator lock, as a background checkpoint's does. When no record was
// appended since the last checkpoint the call is a no-op — an idle Close or
// SIGTERM does not rewrite an identical checkpoint file. It is
// ErrNotDurable on networks not created by Open or Create and ErrClosed
// after Close.
func (n *Network) Checkpoint() error {
	n.mu.Lock()
	if n.wal == nil {
		n.mu.Unlock()
		return fmt.Errorf("reachac: Checkpoint: %w", ErrNotDurable)
	}
	if err := n.writeGuardLocked(); err != nil {
		n.mu.Unlock()
		return err
	}
	// Safe to wait under mu: the checkpoint write never takes it.
	n.ckptWG.Wait()
	if n.wal.Clean() {
		n.ctr.ckptSkipped.Add(1)
		n.mu.Unlock()
		return nil
	}
	write, err := n.checkpointLocked()
	n.mu.Unlock()
	if err != nil {
		return err
	}
	return write()
}

// writeGuardLocked rejects mutations on closed, WAL-poisoned, fenced or
// read-replica networks. Callers hold n.mu.
func (n *Network) writeGuardLocked() error {
	if n.closed {
		return fmt.Errorf("reachac: %w", ErrClosed)
	}
	if n.follower != nil {
		return n.errFollowerReadOnly()
	}
	if fe := n.fencedEpoch.Load(); fe != 0 {
		return fmt.Errorf("reachac: leader epoch %d superseded by observed epoch %d: %w",
			n.replSource.Epoch(), fe, ErrReadOnly)
	}
	if n.walErr != nil {
		return fmt.Errorf("reachac: %w: %v", ErrReadOnly, n.walErr)
	}
	return nil
}

// ObserveEpoch tells a durable leader that leadership epoch e exists
// somewhere. When e exceeds the leader's own epoch, the leader fences
// itself: further mutations fail with ErrReadOnly, so a superseded leader
// still receiving traffic (a stale VIP, a slow DNS flip) serves stale READS
// instead of growing a divergent history no follower will accept. Reads and
// replication shipping continue — a catching-up follower can still drain
// this leader's tail before re-pointing. The report is true when the
// network is (now) fenced. Lower or equal epochs, non-durable networks and
// followers are no-ops. The replication endpoints call this automatically
// for every higher-epoch tail request; it is exported for serving layers
// with out-of-band epoch signals (an epoch file, a coordination service).
func (n *Network) ObserveEpoch(e uint64) bool {
	if n.replSource == nil || n.follower != nil {
		return false
	}
	if e <= n.replSource.Epoch() {
		return n.fencedEpoch.Load() != 0
	}
	for {
		cur := n.fencedEpoch.Load()
		if cur >= e || n.fencedEpoch.CompareAndSwap(cur, e) {
			return true
		}
	}
}

// Fenced reports whether the leader fenced itself after observing a higher
// leadership epoch (see ObserveEpoch).
func (n *Network) Fenced() bool { return n.fencedEpoch.Load() != 0 }

// commitLocked durably appends one committed batch's record group (see
// appendLocked), then triggers a background checkpoint if the segment
// crossed the size threshold. Callers hold n.mu.
func (n *Network) commitLocked(g *wal.Group) error {
	if err := n.appendLocked(g); err != nil {
		return err
	}
	n.maybeCheckpointLocked()
	return nil
}

// appendLocked durably appends g as one record group. A group over the
// size limit is refused with nothing written (ErrTooLarge), and the caller
// decides what that means. Any other append failure poisons the network.
// Callers hold n.mu.
func (n *Network) appendLocked(g *wal.Group) error {
	if n.wal == nil || g.Len() == 0 {
		return nil
	}
	if err := n.wal.AppendGroup(g); err != nil {
		if errors.Is(err, ErrTooLarge) {
			return fmt.Errorf("reachac: %w", err)
		}
		return n.poisonLocked(err)
	}
	return nil
}

// poisonLocked makes the network read-only after a mutation the log could
// not take: the in-memory state may contain non-invertible mutations the
// log missed, so acknowledging anything further could diverge from what
// recovery will rebuild. Callers hold n.mu.
func (n *Network) poisonLocked(err error) error {
	n.walErr = err
	return fmt.Errorf("reachac: WAL append failed (network is now read-only): %w", err)
}

// maybeCheckpointLocked starts at most one background checkpoint once a
// durable network's current WAL segment exceeds the configured threshold;
// the write runs in a goroutine off the mutation path. Callers hold n.mu.
func (n *Network) maybeCheckpointLocked() {
	if n.wal == nil || n.ckptEvery <= 0 || n.wal.Size() < n.ckptEvery || n.ckptActive.Load() {
		return
	}
	write, err := n.checkpointLocked()
	if err != nil {
		n.recordCkptErr(err)
		return
	}
	go func() {
		if err := write(); err != nil {
			n.recordCkptErr(err)
		}
	}()
}

// checkpointLocked is the one checkpoint path. Under n.mu it rotates the
// log and clones the graph and the policy store, so the checkpoint covers
// exactly the rotated segments, and it returns the write: the
// serialization and fsyncs, which the caller runs after releasing n.mu.
// The checkpoint counts as active (ckptActive, ckptWG) from the rotation
// until the write returns, so Close and Checkpoint wait for it and no
// second one starts. Callers hold n.mu with no checkpoint active.
func (n *Network) checkpointLocked() (write func() error, err error) {
	n.ckptActive.Store(true)
	covered, err := n.wal.Rotate()
	if err != nil {
		n.ckptActive.Store(false)
		return nil, err
	}
	gc, sc := n.g.Clone(), n.store.Load().Clone()
	n.ckptWG.Add(1)
	return func() error {
		defer n.ckptWG.Done()
		defer n.ckptActive.Store(false)
		if err := n.wal.WriteCheckpoint(covered, gc, sc); err != nil {
			return err
		}
		n.ctr.ckptTaken.Add(1)
		return nil
	}, nil
}

// recordCkptErr retains the first background checkpoint failure for Close to
// surface. It takes only ckptMu, so the background checkpointer can report
// while a caller holds n.mu (e.g. Checkpoint waiting on ckptWG).
func (n *Network) recordCkptErr(err error) {
	n.ckptMu.Lock()
	if n.ckptErr == nil {
		n.ckptErr = err
	}
	n.ckptMu.Unlock()
}
