package reachac

import (
	"fmt"
	"net/http"
	"time"

	"reachac/internal/replica"
	"reachac/internal/wal"
)

// ReplicaStatus is a follower's replication state; see replica.Status.
type ReplicaStatus = replica.Status

// ChainReport is the result of an audit-chain verification; see
// wal.ChainReport.
type ChainReport = wal.ChainReport

// VerifyChain verifies the tamper-evidence hash chain of the log directory
// offline: every record group's link to its predecessor, anchored at the
// newest checkpoint. It reports the verified extent; a broken link comes back
// as a *wal.ChainError naming the first divergent record. The directory must
// not be open (the verifier reads unlocked).
func VerifyChain(dir string) (ChainReport, error) {
	return wal.VerifyChain(dir)
}

// WithFollow opens the network as a read replica of the leader at addr
// (host:port or an http URL). The network bootstraps from the leader's
// newest checkpoint if needed, replays the shipped log into its own
// directory, and keeps applying the leader's tail; every mutation method
// returns ErrReadOnly. Sync and checkpoint options have no effect on a
// follower — it mirrors the leader's bytes verbatim and never compacts.
func WithFollow(addr string) Option {
	return func(c *openConfig) { c.follow = addr }
}

// WithFollowHTTP overrides the follower's HTTP client (tests inject fault
// proxies); only meaningful together with WithFollow.
func WithFollowHTTP(hc *http.Client) Option {
	return func(c *openConfig) { c.followHTTP = hc }
}

// openFollower is Open's body for WithFollow: mirror the leader's log into
// dir, build the network from the recovered state, and start applying the
// tail.
func openFollower(dir string, cfg openConfig) (*Network, error) {
	f, rec, err := replica.Open(replica.Config{Dir: dir, Leader: cfg.follow, HTTP: cfg.followHTTP})
	if err != nil {
		return nil, err
	}
	n := newNetwork(rec.Graph, rec.Store)
	n.follower = f
	n.recovery = RecoveryInfo{Groups: rec.Groups, TornTail: rec.TornTail, CheckpointSeq: rec.CheckpointSeq}
	n.publish()
	f.Start(n.applyReplicated)
	return n, nil
}

// applyReplicated folds one verified, persisted record group from the leader
// into the live state. It runs on the follower's tail goroutine, serialized
// with (nonexistent) mutators by n.mu; the next read republishes the engine
// snapshot exactly as it would after a local mutation.
func (n *Network) applyReplicated(ops []wal.Op) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	defer n.rebaseLocked()
	s := n.store.Load()
	for _, op := range ops {
		ns, err := op.Apply(n.g, s)
		if err != nil {
			return err
		}
		s = ns
	}
	if s != n.store.Load() {
		n.store.Store(s)
	}
	n.ctr.mutations.Add(uint64(len(ops)))
	n.ctr.batches.Add(1)
	return nil
}

// Follower reports whether the network is a read replica (opened with
// WithFollow).
func (n *Network) Follower() bool { return n.follower != nil }

// ReplicaStatus returns the follower's replication state — cursor, leader
// position, connectivity, staleness inputs. The zero value on non-followers.
func (n *Network) ReplicaStatus() ReplicaStatus {
	if n.follower == nil {
		return ReplicaStatus{}
	}
	return n.follower.Status()
}

// ReplicaSource returns the WAL-shipping source a serving layer mounts to
// make this (durable, leader) network followable; nil on non-durable
// networks and on followers.
func (n *Network) ReplicaSource() *replica.Source { return n.replSource }

// ReplicaEpoch returns the leadership epoch: the epoch this leader serves
// under, or the epoch a follower is applying. Zero on non-durable networks.
func (n *Network) ReplicaEpoch() uint64 {
	if n.follower != nil {
		return n.follower.Status().Epoch
	}
	if n.replSource != nil {
		return n.replSource.Epoch()
	}
	return 0
}

// replicaStats fills the replication block of a Stats snapshot.
func (n *Network) replicaStats(st *Stats) {
	if n.replSource != nil {
		st.ReplicaEpoch = n.replSource.Epoch()
	}
	if n.follower == nil {
		return
	}
	rs := n.follower.Status()
	st.Follower = true
	st.ReplicaEpoch = rs.Epoch
	st.ReplicaConnected = rs.Connected
	st.ReplicaHalted = rs.Halted
	st.ReplicaAppliedSeq = rs.AppliedSeq
	st.ReplicaAppliedOff = rs.AppliedOff
	st.ReplicaGroups = rs.Groups
	st.ReplicaLeaderSeq = rs.LeaderSeq
	st.ReplicaLeaderOff = rs.LeaderOff
	st.ReplicaLagBytes = rs.LagBytes()
	if !rs.LastContact.IsZero() {
		st.ReplicaStalenessMS = time.Since(rs.LastContact).Milliseconds()
	}
}

// closeFollower stops replication and releases the follower's directory;
// reads keep serving the last applied state. Called from Close.
func (n *Network) closeFollower() error {
	n.mu.Lock()
	if n.follower == nil || n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	return n.follower.Close()
}

// errFollowerReadOnly is the mutation rejection on a read replica.
func (n *Network) errFollowerReadOnly() error {
	return fmt.Errorf("reachac: %w: network is a read replica following %s",
		ErrReadOnly, n.follower.Status().Leader)
}
