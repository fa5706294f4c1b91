package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"reachac/internal/core"
	"reachac/internal/graph"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

// Sync policies.
const (
	// SyncAlways fsyncs before Append returns (group-committed: concurrent
	// appends waiting on the same fsync are covered by one call). This is
	// the default and the only policy under which an acknowledged mutation
	// is guaranteed to survive a machine crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background goroutine on a fixed cadence;
	// a crash may lose up to one interval of acknowledged mutations.
	SyncInterval
	// SyncNever leaves syncing to the OS (and to Rotate/Close, which always
	// sync). A crash may lose anything since the last rotation.
	SyncNever
)

// Options configures a Log.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// Interval is the SyncInterval cadence (default 50ms).
	Interval time.Duration
}

// Recovered reports what Open reconstructed from the directory.
type Recovered struct {
	// Graph and Store hold the recovered state: the latest durable
	// checkpoint advanced by every decodable record group in the log tail.
	Graph *graph.Graph
	Store *core.Store
	// Groups counts the replayed record groups (acknowledged mutation
	// batches since the checkpoint).
	Groups int
	// TornTail reports that the newest segment ended in a torn or corrupt
	// frame, which was dropped and physically truncated away.
	TornTail bool
	// CheckpointSeq is the segment sequence the loaded checkpoint covered
	// (0 when recovery started from an empty state).
	CheckpointSeq uint64
	// Chain is the tamper-evidence chain value after the last replayed
	// group (the anchor when the tail was empty); TailSeq and TailSize
	// locate the append position: the newest segment and its byte length
	// after torn-tail truncation. A replica resumes shipping from exactly
	// (TailSeq, TailSize, Chain).
	Chain    Chain
	TailSeq  uint64
	TailSize int64
}

// Log is an append-only write-ahead log over numbered segment files in one
// directory, with checkpoint-based compaction. Append is safe for concurrent
// use; Rotate and WriteCheckpoint must be externally serialized against each
// other (the facade runs them under its mutator lock / a single checkpointer).
type Log struct {
	dir    string
	policy SyncPolicy

	// mu guards the segment file handle and write-side counters.
	mu       sync.Mutex
	f        *os.File
	seq      uint64
	size     int64
	appended uint64
	closed   bool
	// scratch is the group Append encodes into, and frame the chunk list
	// of the frame being written; neither keeps more than RetainMax bytes
	// of frame between appends.
	scratch Group
	frame   [][]byte
	// chain is the running tamper-evidence chain value (after the last
	// appended group); ckptChain snapshots it at the last Rotate, which is
	// the anchor the matching WriteCheckpoint records.
	chain     Chain
	ckptChain Chain
	// ckptSeq is the segment sequence the newest durable checkpoint covers
	// (recovered at Open, advanced by WriteCheckpoint); with it, Clean can
	// tell an idle log from one holding uncheckpointed records.
	ckptSeq uint64

	// fsyncs counts data-file fsyncs (append group commits, rotations and
	// close), the durability cost the facade's Stats surface so callers can
	// observe group-commit amortization.
	fsyncs atomic.Uint64

	// syncMu serializes fsyncs; synced (guarded by it) is the highest
	// appended index known durable, giving group commit: a waiter that
	// finds synced past its own index rides a finished fsync for free.
	// syncedSeq/syncedOff track the same durability frontier as a byte
	// position — the shipping boundary replication serves up to — and
	// watch, made on demand by DurableWatch, is closed whenever that
	// frontier advances, so a long-polling tail handler can wait without
	// spinning and an append nobody waits on allocates nothing. Appends extend
	// size by whole frames only, so the frontier is always frame-aligned.
	syncMu    sync.Mutex
	synced    uint64
	syncedSeq uint64
	syncedOff int64
	watch     chan struct{}
	// syncFailed latches the first fsync failure (error in syncErr, written
	// once under syncMu). Once set, every Append fails: a log whose
	// durability is unknown must not keep acknowledging — the background
	// SyncInterval loop in particular would otherwise swallow disk errors
	// forever.
	syncFailed atomic.Bool
	syncErr    error

	// lock is the flock(2)-held lock file preventing a second process from
	// opening (and truncating/appending) a live directory.
	lock *os.File

	stop chan struct{}
	done chan struct{}
}

const (
	segmentPattern    = "wal-%08d.log"
	checkpointPattern = "checkpoint-%08d.ckpt"
	defaultInterval   = 50 * time.Millisecond
)

func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf(segmentPattern, seq))
}

func checkpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf(checkpointPattern, seq))
}

// SegmentFile returns the path of segment seq inside dir; CheckpointFile the
// path of the checkpoint covering seq. The replication layer serves and
// mirrors these files by path.
func SegmentFile(dir string, seq uint64) string { return segmentPath(dir, seq) }

// CheckpointFile returns the path of the checkpoint covering segment seq.
func CheckpointFile(dir string, seq uint64) string { return checkpointPath(dir, seq) }

// ListDir returns the segment and checkpoint sequence numbers present in
// dir, each ascending.
func ListDir(dir string) (segments, checkpoints []uint64, err error) {
	st, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}
	return st.segments, st.checkpoints, nil
}

// dirState lists the sequence numbers present in a log directory.
type dirState struct {
	segments    []uint64 // ascending
	checkpoints []uint64 // ascending
}

func scanDir(dir string) (dirState, error) {
	var st dirState
	entries, err := os.ReadDir(dir)
	if err != nil {
		return st, err
	}
	for _, e := range entries {
		var seq uint64
		if n, err := fmt.Sscanf(e.Name(), segmentPattern, &seq); err == nil && n == 1 {
			st.segments = append(st.segments, seq)
			continue
		}
		if n, err := fmt.Sscanf(e.Name(), checkpointPattern, &seq); err == nil && n == 1 {
			st.checkpoints = append(st.checkpoints, seq)
		}
	}
	sort.Slice(st.segments, func(i, j int) bool { return st.segments[i] < st.segments[j] })
	sort.Slice(st.checkpoints, func(i, j int) bool { return st.checkpoints[i] < st.checkpoints[j] })
	return st, nil
}

// Open recovers the state persisted in dir — creating it empty if needed —
// and returns a Log positioned to append after the recovered tail.
//
// Recovery loads the newest readable checkpoint (corrupt ones are skipped,
// falling back to older checkpoints and ultimately to an empty state), then
// replays the record groups of every segment past it, in sequence order.
// A torn or corrupt tail is tolerated only on the newest segment: the bad
// suffix is dropped and truncated away so new appends extend a clean prefix.
// Corruption anywhere else — a bad frame mid-log, a gap in the segment
// numbering — is a hard error: silently skipping acknowledged mutations
// would break the exactly-the-acknowledged-prefix recovery guarantee.
func Open(dir string, opts Options) (*Log, Recovered, error) {
	var rec Recovered
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rec, err
	}
	// Recovery truncates torn tails and takes append handles, so a second
	// opener against a LIVE directory would corrupt the first's log. An
	// advisory flock (released automatically if the process dies, so a
	// SIGKILLed owner never wedges recovery) makes that a clean error.
	lock, err := acquireDirLock(dir)
	if err != nil {
		return nil, rec, err
	}
	fail := func(err error) (*Log, Recovered, error) {
		lock.Close()
		return nil, rec, err
	}
	rec, err = recoverDir(dir)
	if err != nil {
		return fail(err)
	}
	f, err := os.OpenFile(segmentPath(dir, rec.TailSeq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(err)
	}
	l := &Log{
		dir:       dir,
		policy:    opts.Sync,
		f:         f,
		seq:       rec.TailSeq,
		size:      rec.TailSize,
		chain:     rec.Chain,
		ckptChain: rec.Chain,
		ckptSeq:   rec.CheckpointSeq,
		syncedSeq: rec.TailSeq,
		syncedOff: rec.TailSize,
		lock:      lock,
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return fail(err)
	}
	if opts.Sync == SyncInterval {
		iv := opts.Interval
		if iv <= 0 {
			iv = defaultInterval
		}
		l.stop, l.done = make(chan struct{}), make(chan struct{})
		go l.syncLoop(iv)
	}
	return l, rec, nil
}

// Recover reconstructs the state persisted in dir without opening it for
// append, creating the directory empty if needed. It performs the exact
// recovery Open does — checkpoint fallback, ordered chained replay,
// torn-tail truncation on the newest segment — so a replica uses it to
// rebuild its serving state from locally shipped bytes. The caller must hold
// the directory's lock (LockDir) if any other process could be writing it.
func Recover(dir string) (Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Recovered{}, err
	}
	return recoverDir(dir)
}

// LockDir takes the directory's advisory flock — the same lock Open holds —
// without opening the log, for processes (a follower) that own the directory
// through a different write path. Close the returned file to release it.
func LockDir(dir string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return acquireDirLock(dir)
}

// recoverDir loads the newest readable checkpoint and replays every segment
// past it, verifying frame CRCs, segment contiguity and the tamper-evidence
// chain. A torn or corrupt tail is tolerated only on the newest segment: the
// bad suffix is dropped and truncated away so new appends (or shipped bytes)
// extend a clean prefix. Corruption anywhere else — a bad frame mid-log, a
// chain-link mismatch, a gap in the segment numbering — is a hard error:
// silently skipping acknowledged mutations would break the
// exactly-the-acknowledged-prefix recovery guarantee, and no crash produces
// a CRC-valid record with a wrong chain link.
func recoverDir(dir string) (Recovered, error) {
	var rec Recovered
	st, err := scanDir(dir)
	if err != nil {
		return rec, err
	}

	// Newest readable checkpoint wins; unreadable ones (a crash can leave a
	// half-written temp file but never a half-renamed checkpoint, so this is
	// defense in depth against external corruption) fall back.
	rec.Graph, rec.Store = graph.New(), core.NewStore()
	for i := len(st.checkpoints) - 1; i >= 0; i-- {
		seq := st.checkpoints[i]
		g, s, chain, err := readCheckpointFile(checkpointPath(dir, seq))
		if err != nil {
			continue
		}
		rec.Graph, rec.Store, rec.CheckpointSeq, rec.Chain = g, s, seq, chain
		break
	}

	// Replay segments past the checkpoint, in order, verifying contiguity.
	// Rotation creates segment N+1 (durably) before the checkpoint covering
	// N is written, so a directory holding a checkpoint always holds the
	// segment right after it: a missing first tail segment is lost history,
	// as hard an error as a gap further along.
	replay := st.segments[:0]
	for _, seq := range st.segments {
		if seq > rec.CheckpointSeq {
			replay = append(replay, seq)
		}
	}
	if rec.CheckpointSeq > 0 && (len(replay) == 0 || replay[0] != rec.CheckpointSeq+1) {
		return rec, fmt.Errorf("wal: segment %d after checkpoint %d is missing", rec.CheckpointSeq+1, rec.CheckpointSeq)
	}
	rec.TailSeq = rec.CheckpointSeq + 1
	for i, seq := range replay {
		if i > 0 && seq != replay[i-1]+1 {
			return rec, fmt.Errorf("wal: segment gap: %d follows %d", seq, replay[i-1])
		}
		last := i == len(replay)-1
		path := segmentPath(dir, seq)
		data, err := os.ReadFile(path)
		if err != nil {
			return rec, err
		}
		var applyErr error
		valid := scanFrames(data, func(payload []byte) bool {
			ops, prev, hasPrev, err := decodeChained(payload)
			if err != nil {
				applyErr = err
				return false
			}
			if hasPrev && prev != rec.Chain {
				applyErr = fmt.Errorf("chain link mismatch on group %d: record carries prev %x, chain is %x",
					rec.Groups, prev[:8], rec.Chain[:8])
				return false
			}
			for _, op := range ops {
				if rec.Store, err = op.Apply(rec.Graph, rec.Store); err != nil {
					applyErr = err
					return false
				}
			}
			rec.Chain = chainNext(rec.Chain, payload)
			rec.Groups++
			return true
		})
		if applyErr != nil {
			return rec, fmt.Errorf("wal: segment %d: %w", seq, applyErr)
		}
		if valid < int64(len(data)) {
			if !last {
				return rec, fmt.Errorf("wal: segment %d: corrupt frame at offset %d before newer segment", seq, valid)
			}
			rec.TornTail = true
			if err := os.Truncate(path, valid); err != nil {
				return rec, fmt.Errorf("wal: truncating torn tail of segment %d: %w", seq, err)
			}
		}
		rec.TailSeq, rec.TailSize = seq, valid
	}
	return rec, nil
}

// Append durably logs one record group — the operations of one committed
// mutation batch. Under SyncAlways it returns only once the group is fsynced
// (concurrent appends share fsyncs); under the other policies it returns
// after the OS write. An error means the group's durability is unknown and
// the log must not be trusted for further appends.
func (l *Log) Append(ops []Op) error {
	if err := l.failedSync(); err != nil {
		return err
	}
	l.mu.Lock()
	l.scratch.null = ops == nil
	var err error
	for i := range ops {
		if err = l.scratch.Add(&ops[i]); err != nil {
			break
		}
	}
	var at appendPos
	if err == nil {
		at, err = l.writeLocked(&l.scratch)
	}
	l.scratch.Reset()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.await(at)
}

// AppendGroup is Append for a group encoded as its operations applied: the
// log frames it where it lies and writes it, and keeps no reference to it.
func (l *Log) AppendGroup(g *Group) error {
	if err := l.failedSync(); err != nil {
		return err
	}
	l.mu.Lock()
	at, err := l.writeLocked(g)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.await(at)
}

// failedSync refuses an append once an fsync failed — possibly one the
// background interval syncer ran — since the durability of anything
// already acknowledged is unknown.
func (l *Log) failedSync() error {
	if !l.syncFailed.Load() {
		return nil
	}
	l.syncMu.Lock()
	err := l.syncErr
	l.syncMu.Unlock()
	return fmt.Errorf("wal: log failed a previous sync: %w", err)
}

// appendPos locates one written group: its append index, and the segment
// and size it left the log at.
type appendPos struct {
	idx  uint64
	seq  uint64
	size int64
}

// writeLocked frames g linked to the log's chain and writes it. Callers
// hold l.mu.
func (l *Log) writeLocked(g *Group) (appendPos, error) {
	if l.closed {
		return appendPos{}, fmt.Errorf("wal: log is closed")
	}
	frame, next, err := g.appendFrame(l.frame[:0], l.chain)
	if err != nil {
		return appendPos{}, err
	}
	written := 0
	for _, c := range frame {
		if _, err = l.f.Write(c); err != nil {
			break
		}
		written += len(c)
	}
	// The chunk list is kept; the chunks, which may be a bulk group's, are
	// not.
	clear(frame)
	l.frame = frame[:0]
	if err != nil {
		return appendPos{}, err
	}
	l.chain = next
	l.size += int64(written)
	l.appended++
	return appendPos{l.appended, l.seq, l.size}, nil
}

// await returns once the group written at is durable as the sync policy
// says.
func (l *Log) await(at appendPos) error {
	switch l.policy {
	case SyncAlways:
		return l.syncTo(at.idx)
	case SyncNever:
		// Nothing is fsynced, so the shipping frontier mirrors the
		// durability contract: whatever the OS has is what a follower (or a
		// crash) can observe.
		l.syncMu.Lock()
		l.advanceShipLocked(at.seq, at.size)
		l.syncMu.Unlock()
	}
	return nil
}

// advanceShipLocked moves the frame-aligned shipping frontier forward and
// wakes long-poll waiters. Callers hold syncMu.
func (l *Log) advanceShipLocked(seq uint64, off int64) {
	if seq < l.syncedSeq || (seq == l.syncedSeq && off <= l.syncedOff) {
		return
	}
	l.syncedSeq, l.syncedOff = seq, off
	if l.watch != nil {
		close(l.watch)
		l.watch = nil
	}
}

// DurablePos reports the shipping frontier: the segment and byte offset up
// to which every record is durable (fsynced under SyncAlways/SyncInterval,
// OS-buffered under SyncNever) and may be served to replicas. The frontier
// is always frame-aligned.
func (l *Log) DurablePos() (seq uint64, off int64) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.syncedSeq, l.syncedOff
}

// DurableWatch returns a channel closed the next time the shipping frontier
// advances; callers re-read DurablePos and re-arm.
func (l *Log) DurableWatch() <-chan struct{} {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.watch == nil {
		l.watch = make(chan struct{})
	}
	return l.watch
}

// Chain returns the running tamper-evidence chain value (after the last
// appended group).
func (l *Log) Chain() Chain {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.chain
}

// CheckpointSeq returns the segment sequence the newest durable checkpoint
// covers (0 before the first checkpoint).
func (l *Log) CheckpointSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptSeq
}

// syncTo blocks until every group appended up to idx is durable, fsyncing at
// most once per batch of waiters.
func (l *Log) syncTo(idx uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced >= idx {
		return nil
	}
	l.mu.Lock()
	target, seq, size := l.appended, l.seq, l.size
	f := l.f
	l.mu.Unlock()
	l.fsyncs.Add(1)
	if err := f.Sync(); err != nil {
		if l.syncErr == nil {
			l.syncErr = err
		}
		l.syncFailed.Store(true)
		return err
	}
	l.synced = target
	l.advanceShipLocked(seq, size)
	return nil
}

func (l *Log) syncLoop(iv time.Duration) {
	defer close(l.done)
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			idx := l.appended
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return
			}
			_ = l.syncTo(idx)
		}
	}
}

// Size returns the byte size of the current segment (the rotation trigger).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Seq returns the current segment sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Appends returns the number of record groups appended since Open.
func (l *Log) Appends() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Fsyncs returns the number of data-file fsyncs issued since Open.
func (l *Log) Fsyncs() uint64 { return l.fsyncs.Load() }

// Clean reports that every record in the log is already covered by a durable
// checkpoint (or that the log never held one): the live segment is empty and
// immediately follows the newest checkpoint, so a new checkpoint would
// capture exactly the state the recovery chain already reconstructs.
// Callers use it to elide identical checkpoint rewrites on idle shutdown.
func (l *Log) Clean() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size == 0 && l.seq == l.ckptSeq+1
}

// Rotate fsyncs and closes the current segment and starts the next one,
// returning the sequence number the finished segment covers — the argument a
// subsequent WriteCheckpoint must pass once it has captured state at least
// as new as every record in that segment. Callers must serialize Rotate
// against Append (the facade holds its mutator lock).
func (l *Log) Rotate() (covered uint64, err error) {
	// Take syncMu first (the same order syncTo uses) so no fsync of the old
	// handle races the switch.
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	l.fsyncs.Add(1)
	if err := l.f.Sync(); err != nil {
		if l.syncErr == nil {
			l.syncErr = err
		}
		l.syncFailed.Store(true)
		return 0, err
	}
	next, err := os.OpenFile(segmentPath(l.dir, l.seq+1), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if err := syncDir(l.dir); err != nil {
		next.Close()
		return 0, err
	}
	covered = l.seq
	l.f.Close()
	l.f, l.seq, l.size = next, l.seq+1, 0
	l.synced = l.appended
	// The sealed segment is fully durable: publish the frontier at the head
	// of the new segment, and snapshot the chain as the anchor the matching
	// WriteCheckpoint records.
	l.advanceShipLocked(l.seq, 0)
	l.ckptChain = l.chain
	return covered, nil
}

// WriteCheckpoint durably persists a state snapshot covering every segment
// up to and including covered (as returned by Rotate), then deletes the
// segments and checkpoints it supersedes. It records the chain value
// captured at that Rotate as the anchor re-rooting the tamper-evidence
// chain past the deleted segments. The checkpoint is written to a
// temp file, fsynced and renamed into place, so a crash at any point leaves
// either the old recovery chain or the new one — never neither.
func (l *Log) WriteCheckpoint(covered uint64, g *graph.Graph, s *core.Store) error {
	l.mu.Lock()
	anchor := l.ckptChain
	l.mu.Unlock()
	tmp := filepath.Join(l.dir, "checkpoint.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := writeCheckpoint(f, g, s, anchor); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, checkpointPath(l.dir, covered)); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.mu.Lock()
	if covered > l.ckptSeq {
		l.ckptSeq = covered
	}
	l.mu.Unlock()
	// The new checkpoint is durable; everything it supersedes can go. Best
	// effort: a leftover file only wastes space, recovery ignores it.
	st, err := scanDir(l.dir)
	if err != nil {
		return nil
	}
	for _, seq := range st.segments {
		if seq <= covered {
			os.Remove(segmentPath(l.dir, seq))
		}
	}
	for _, seq := range st.checkpoints {
		if seq < covered {
			os.Remove(checkpointPath(l.dir, seq))
		}
	}
	return nil
}

// Close fsyncs and closes the log. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	f := l.f
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	l.fsyncs.Add(1)
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if l.lock != nil {
		// Closing the fd drops the flock.
		if cerr := l.lock.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// acquireDirLock takes an exclusive, non-blocking advisory lock on
// dir/wal.lock. The kernel releases it when the holding process exits —
// even by SIGKILL — so crash recovery is never blocked by a stale lock.
func acquireDirLock(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "wal.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: directory %s is locked by another process: %w", dir, err)
	}
	return f, nil
}

// syncDir fsyncs a directory so entry creations/renames are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// RecordOffsets returns the end offset of every valid frame in a segment
// file, in order. The crash-consistency tests use it to truncate a log at
// exact record boundaries.
func RecordOffsets(path string) ([]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var offs []int64
	off := int64(0)
	scanFrames(data, func(payload []byte) bool {
		off += frameHeaderSize + int64(len(payload))
		offs = append(offs, off)
		return true
	})
	return offs, nil
}
