package reachac

import "sync/atomic"

// Stats is a point-in-time snapshot of the network's operation counters,
// sized for a monitoring endpoint: cheap to collect, monotonic within one
// process lifetime (the counters restart at zero on reopen).
type Stats struct {
	// Users, Relationships and Resources size the current state.
	Users         int `json:"users"`
	Relationships int `json:"relationships"`
	Resources     int `json:"resources"`
	// Engine names the selected evaluator kind.
	Engine string `json:"engine"`
	// Durable reports whether mutations persist to a write-ahead log.
	Durable bool `json:"durable"`

	// Checks counts single access decisions (CanAccess and CheckPath,
	// including every per-requester decision of a CanAccessAll batch);
	// BatchChecks counts CanAccessAll calls; Audiences counts audience
	// enumerations (resource- and path-based).
	Checks      uint64 `json:"checks"`
	BatchChecks uint64 `json:"batch_checks"`
	Audiences   uint64 `json:"audiences"`

	// Mutations counts acknowledged operations (records kept only for
	// replay alignment — a failed sub-transaction's node additions — are
	// excluded); Batches counts the committed Batch groups carrying them.
	// Mutations/Batches is the achieved write coalescing factor.
	Mutations uint64 `json:"mutations"`
	Batches   uint64 `json:"batches"`

	// Republications counts engine snapshot publications (the slow path a
	// reader pays after a change); the three Publications* counters split
	// it by what each one cost (see publishLocked): Shared reused the
	// published graph clone (policy-only change), Advanced fast-forwarded a
	// retired clone through the delta log (O(Δ)), Rebuilt cloned the
	// master's changes since its base (O(Δ) since the last rebase) and
	// built a new evaluator — O(V+E) on the index kinds, which re-index the
	// whole graph, and an empty audience cache on every kind.
	Republications       uint64 `json:"republications"`
	PublicationsShared   uint64 `json:"publications_shared"`
	PublicationsAdvanced uint64 `json:"publications_advanced"`
	PublicationsRebuilt  uint64 `json:"publications_rebuilt"`
	// GraphRebases counts publications that first folded the master graph's
	// changes into a new shared base, the one O(V+E) graph step left (see
	// graph.Graph.Rebase); a rebuilt publication or two follows each.
	GraphRebases uint64 `json:"graph_rebases"`

	// The next three fields are always zero: decisions are not cached. They
	// stay declared because benchmark/main.go:391 reads them (their only
	// reader), until a benchmark PR can drop them.
	DecisionCacheHits      uint64 `json:"decision_cache_hits"`
	DecisionCacheMisses    uint64 `json:"decision_cache_misses"`
	DecisionCacheEvictions uint64 `json:"decision_cache_evictions"`

	// PlannerRoute* count reachability queries answered per route when
	// routing is enabled (WithPlanner; see routedEval); all zero otherwise.
	PlannerRouteAudience    uint64 `json:"planner_route_audience"`
	PlannerRouteFlatForward uint64 `json:"planner_route_flat_forward"`
	PlannerRouteFlatReverse uint64 `json:"planner_route_flat_reverse"`
	PlannerRoutePrimary     uint64 `json:"planner_route_primary"`

	// PlanCompiles counts path expressions compiled into search plans by the
	// online engines of every snapshot. A plan is compiled once per distinct
	// expression per graph clone, so in steady state the counter stands
	// still; one that climbs with Checks means checks are recompiling plans.
	// PlanCacheEntries is a gauge: the plans the published snapshot holds.
	PlanCompiles     uint64 `json:"plan_compiles"`
	PlanCacheEntries int    `json:"plan_cache_entries"`

	// Checkpoints counts checkpoints taken; CheckpointsSkipped counts
	// Checkpoint calls satisfied as no-ops because the log was already fully
	// covered by the last checkpoint.
	Checkpoints        uint64 `json:"checkpoints"`
	CheckpointsSkipped uint64 `json:"checkpoints_skipped"`

	// WALAppends counts appended record groups, WALFsyncs the fsyncs that
	// made them (and rotations/closes) durable; WALFsyncs < Mutations means
	// group commit amortized fsync cost across writers. WALSegmentBytes and
	// WALSegmentSeq describe the live segment. All four are zero on
	// non-durable networks.
	WALAppends      uint64 `json:"wal_appends"`
	WALFsyncs       uint64 `json:"wal_fsyncs"`
	WALSegmentBytes int64  `json:"wal_segment_bytes"`
	WALSegmentSeq   uint64 `json:"wal_segment_seq"`

	// AuditRetained is the current length of the retained decision trail.
	AuditRetained int `json:"audit_retained"`

	// Follower reports a read replica (opened with WithFollow); the
	// Replica* fields below are its staleness bound. ReplicaEpoch is the
	// leadership epoch (set on leaders too). ReplicaAppliedSeq/Off is the
	// replication cursor — every leader byte before it is verified, persisted
	// and applied — and ReplicaLeaderSeq/Off the leader's durable position at
	// last contact; ReplicaLagBytes is their distance. ReplicaStalenessMS is
	// the wall-clock milliseconds since the last successful leader exchange:
	// bounded while connected, growing while disconnected. ReplicaHalted
	// means replication stopped on a non-retryable fault (epoch regression,
	// divergence, tamper) and the replica serves frozen state. All are
	// gauges, passed through Delta unchanged.
	// Fenced reports a leader that observed a higher leadership epoch
	// (FencedByEpoch) through its replication endpoints and now rejects
	// mutations with ErrReadOnly; both are gauges.
	Fenced        bool   `json:"fenced,omitempty"`
	FencedByEpoch uint64 `json:"fenced_by_epoch,omitempty"`

	Follower           bool   `json:"follower,omitempty"`
	ReplicaEpoch       uint64 `json:"replica_epoch,omitempty"`
	ReplicaConnected   bool   `json:"replica_connected,omitempty"`
	ReplicaHalted      bool   `json:"replica_halted,omitempty"`
	ReplicaAppliedSeq  uint64 `json:"replica_applied_seq,omitempty"`
	ReplicaAppliedOff  int64  `json:"replica_applied_off,omitempty"`
	ReplicaGroups      uint64 `json:"replica_groups,omitempty"`
	ReplicaLeaderSeq   uint64 `json:"replica_leader_seq,omitempty"`
	ReplicaLeaderOff   int64  `json:"replica_leader_off,omitempty"`
	ReplicaLagBytes    int64  `json:"replica_lag_bytes,omitempty"`
	ReplicaStalenessMS int64  `json:"replica_staleness_ms,omitempty"`
}

// Delta returns the counter-by-counter difference s - prev, for bounding
// the activity of one measured window (acbench records Stats before and
// after each scenario and reports the difference). The size fields (Users,
// Relationships, Resources, AuditRetained, PlanCacheEntries) and identity
// fields (Engine, Durable, WALSegmentBytes, WALSegmentSeq) carry s's values
// unchanged — they are gauges, not monotonic counters.
func (s Stats) Delta(prev Stats) Stats {
	d := s
	d.Checks -= prev.Checks
	d.BatchChecks -= prev.BatchChecks
	d.Audiences -= prev.Audiences
	d.Mutations -= prev.Mutations
	d.Batches -= prev.Batches
	d.Republications -= prev.Republications
	d.PublicationsShared -= prev.PublicationsShared
	d.PublicationsAdvanced -= prev.PublicationsAdvanced
	d.PublicationsRebuilt -= prev.PublicationsRebuilt
	d.GraphRebases -= prev.GraphRebases
	d.PlannerRouteAudience -= prev.PlannerRouteAudience
	d.PlannerRouteFlatForward -= prev.PlannerRouteFlatForward
	d.PlannerRouteFlatReverse -= prev.PlannerRouteFlatReverse
	d.PlannerRoutePrimary -= prev.PlannerRoutePrimary
	d.PlanCompiles -= prev.PlanCompiles
	d.Checkpoints -= prev.Checkpoints
	d.CheckpointsSkipped -= prev.CheckpointsSkipped
	d.WALAppends -= prev.WALAppends
	d.WALFsyncs -= prev.WALFsyncs
	return d
}

// counters holds the network's atomically-updated operation tallies; see
// Stats for field meanings.
type counters struct {
	checks      atomic.Uint64
	batchChecks atomic.Uint64
	audiences   atomic.Uint64
	mutations   atomic.Uint64
	batches     atomic.Uint64
	// pubShared + pubAdvanced + pubRebuilt is Stats.Republications.
	pubShared   atomic.Uint64
	pubAdvanced atomic.Uint64
	pubRebuilt  atomic.Uint64
	rebases     atomic.Uint64
	ckptTaken   atomic.Uint64
	ckptSkipped atomic.Uint64

	// planCompiles is shared by the online engines of every snapshot.
	planCompiles atomic.Uint64
}

// Stats collects the network's operation counters and current sizes. It is
// safe for concurrent use; the sizes are read under the mutation lock, the
// counters are atomic.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	users, rels, kind := n.g.NumNodes(), n.g.NumEdges(), n.kind
	n.mu.Unlock()
	st := Stats{
		Users:              users,
		Relationships:      rels,
		Resources:          len(n.store.Load().Resources()),
		Engine:             kind.String(),
		Durable:            n.wal != nil,
		Checks:             n.ctr.checks.Load(),
		BatchChecks:        n.ctr.batchChecks.Load(),
		Audiences:          n.ctr.audiences.Load(),
		Mutations:          n.ctr.mutations.Load(),
		Batches:            n.ctr.batches.Load(),
		Checkpoints:        n.ctr.ckptTaken.Load(),
		CheckpointsSkipped: n.ctr.ckptSkipped.Load(),
		AuditRetained:      n.audit.Len(),
	}
	st.PublicationsShared = n.ctr.pubShared.Load()
	st.PublicationsAdvanced = n.ctr.pubAdvanced.Load()
	st.PublicationsRebuilt = n.ctr.pubRebuilt.Load()
	st.Republications = st.PublicationsShared + st.PublicationsAdvanced + st.PublicationsRebuilt
	st.GraphRebases = n.ctr.rebases.Load()
	st.PlannerRouteAudience = n.routes.audience.Load()
	st.PlannerRouteFlatForward = n.routes.flatForward.Load()
	st.PlannerRouteFlatReverse = n.routes.flatReverse.Load()
	st.PlannerRoutePrimary = n.routes.primary.Load()
	st.PlanCompiles = n.ctr.planCompiles.Load()
	if s := n.snap.Load(); s != nil {
		st.PlanCacheEntries = s.planCacheEntries()
	}
	if n.wal != nil {
		st.WALAppends = n.wal.Appends()
		st.WALFsyncs = n.wal.Fsyncs()
		st.WALSegmentBytes = n.wal.Size()
		st.WALSegmentSeq = n.wal.Seq()
	}
	if fe := n.fencedEpoch.Load(); fe != 0 {
		st.Fenced = true
		st.FencedByEpoch = fe
	}
	n.replicaStats(&st)
	return st
}
