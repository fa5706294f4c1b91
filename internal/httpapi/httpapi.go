// Package httpapi defines the wire types and error codes of the acserverd
// HTTP/JSON API, shared by the server (internal/server) and the typed Go
// client (client), and the codec both ends read and write a check's types
// with (codec.go). Users and resources travel by name — the stable,
// human-facing identifiers — with numeric IDs included where cheap.
package httpapi

import "reachac"

// API paths, versioned under /v1.
const (
	PathHealth        = "/v1/health"
	PathStats         = "/v1/stats"
	PathUsers         = "/v1/users"
	PathRelationships = "/v1/relationships"
	PathShare         = "/v1/share"
	PathRevoke        = "/v1/revoke"
	PathCheck         = "/v1/check"
	PathCheckBatch    = "/v1/check-batch"
	PathAudience      = "/v1/audience"
	PathReach         = "/v1/reach"
	PathReachAudience = "/v1/reach-audience"
	PathPolicies      = "/v1/policies"
	PathAudit         = "/v1/audit"
	// PathShardExpand and PathShardPolicies are the shard-internal endpoints
	// the router (internal/shard, cmd/acshardd) drives: one round of the
	// distributed reachability search, and the name-keyed policy dump the
	// router rebuilds its routing cache from. Harmless (read-only) but
	// useless to ordinary clients.
	PathShardExpand   = "/v1/shard/expand"
	PathShardPolicies = "/v1/shard/policies"
)

// Error codes carried by ErrorBody.Code; the client maps them back to the
// facade's sentinel errors so errors.Is works across the wire.
const (
	CodeBadRequest            = "bad-request"
	CodeUnknownUser           = "unknown-user"
	CodeDuplicateUser         = "duplicate-user"
	CodeUnknownResource       = "unknown-resource"
	CodeUnknownRelationship   = "unknown-relationship"
	CodeDuplicateRelationship = "duplicate-relationship"
	CodeSelfRelationship      = "self-relationship"
	CodeResourceOwned         = "resource-owned"
	CodeReadOnly              = "read-only"
	CodeClosed                = "closed"
	CodeOverloaded            = "overloaded"
	CodeInternal              = "internal"
	// CodeShardUnavailable marks a scatter-gather decision the router failed
	// CLOSED because a shard it needed did not answer: the caller cannot
	// distinguish deny-by-policy from deny-by-outage without it.
	CodeShardUnavailable = "shard-unavailable"
)

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// AddUserRequest creates a member. Attrs values may be strings, numbers or
// booleans (the attribute kinds the graph supports).
type AddUserRequest struct {
	Name  string         `json:"name"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// UserResponse describes one member.
type UserResponse struct {
	ID   uint32 `json:"id"`
	Name string `json:"name"`
}

// RelateRequest adds (POST) a relationship; Mutual adds both directions
// atomically.
type RelateRequest struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Type   string `json:"type"`
	Mutual bool   `json:"mutual,omitempty"`
}

// UnrelateRequest removes (DELETE body) a relationship.
type UnrelateRequest struct {
	From string `json:"from"`
	To   string `json:"to"`
	Type string `json:"type"`
}

// ShareRequest attaches one access rule to a resource, registering it to
// owner on first use. Paths are the rule's conditions (all must hold).
type ShareRequest struct {
	Resource string   `json:"resource"`
	Owner    string   `json:"owner"`
	Paths    []string `json:"paths"`
}

// ShareResponse returns the assigned rule ID.
type ShareResponse struct {
	Rule string `json:"rule"`
}

// RevokeRequest detaches one rule from a resource.
type RevokeRequest struct {
	Resource string `json:"resource"`
	Rule     string `json:"rule"`
}

// RevokeResponse reports whether the rule existed.
type RevokeResponse struct {
	Removed bool `json:"removed"`
}

// Decision is the wire form of one access decision, with the requester
// resolved to a name when possible.
type Decision struct {
	Resource  string `json:"resource"`
	Requester string `json:"requester"`
	Effect    string `json:"effect"`
	Rule      string `json:"rule,omitempty"`
	Reason    string `json:"reason,omitempty"`
}

// CheckBatchRequest decides one resource for many requesters in one
// consistent snapshot (Network.CanAccessAll).
type CheckBatchRequest struct {
	Resource   string   `json:"resource"`
	Requesters []string `json:"requesters"`
}

// CheckBatchResponse is index-aligned with the request's requesters.
type CheckBatchResponse struct {
	Decisions []Decision `json:"decisions"`
}

// UsersResponse lists member names (audience results).
type UsersResponse struct {
	Users []string `json:"users"`
}

// ReachResponse answers a raw reachability query, echoing the canonical
// form of the path expression.
type ReachResponse struct {
	Reachable bool   `json:"reachable"`
	Path      string `json:"path"`
}

// AuditResponse answers /v1/audit: the retained tail of the audit trail,
// oldest first. The trail records every decision, repeats included.
type AuditResponse struct {
	Decisions []Decision `json:"decisions"`
}

// Recovery mirrors reachac.RecoveryInfo.
type Recovery struct {
	Groups        int    `json:"groups"`
	TornTail      bool   `json:"torn_tail"`
	CheckpointSeq uint64 `json:"checkpoint_seq"`
}

// Replica summarizes a follower's replication state for health checks.
type Replica struct {
	Epoch      uint64 `json:"epoch"`
	Connected  bool   `json:"connected"`
	Halted     bool   `json:"halted"`
	AppliedSeq uint64 `json:"applied_seq"`
	AppliedOff int64  `json:"applied_off"`
	// LagBytes and StalenessMS are the staleness bound: byte distance to the
	// leader's durable position, and wall-clock milliseconds since the last
	// successful leader exchange.
	LagBytes    int64 `json:"lag_bytes"`
	StalenessMS int64 `json:"staleness_ms"`
}

// HealthResponse reports liveness, role and what recovery reconstructed.
type HealthResponse struct {
	Status string `json:"status"`
	// Role is "leader" (durable, followable), "follower" (read replica) or
	// "standalone" (non-durable).
	Role          string    `json:"role"`
	Engine        string    `json:"engine"`
	Durable       bool      `json:"durable"`
	Users         int       `json:"users"`
	Relationships int       `json:"relationships"`
	Recovery      *Recovery `json:"recovery,omitempty"`
	Replica       *Replica  `json:"replica,omitempty"`
}

// HeaderStaleness is set on every response a follower serves: the wall-clock
// milliseconds since its last successful leader exchange, a freshness hint in
// the spirit of Retry-After. Absent on leaders.
const HeaderStaleness = "X-Replica-Staleness-Ms"

// HeaderShardPartial is set by the shard router on audience responses that
// are missing one or more shards' contributions: a comma-separated list of
// the unreachable shard indexes. Audiences degrade to a partial (under-
// approximate) answer instead of failing, but the caller must be able to
// tell. Checks never carry it — they fail closed instead.
const HeaderShardPartial = "X-Shard-Partial"

// ShardState, ShardExpandRequest and ShardExpandResponse are the wire form
// of one distributed-search round; the facade types already carry JSON tags,
// so the API reuses them directly.
type (
	ShardState          = reachac.ShardState
	ShardExpandRequest  = reachac.ShardExpandRequest
	ShardExpandResponse = reachac.ShardExpandResponse
)

// ShardPoliciesResponse is the name-keyed policy dump of one shard.
type ShardPoliciesResponse struct {
	Policies []reachac.ResourcePolicy `json:"policies"`
}

// RouterStats counts shard-router events (internal/shard).
type RouterStats struct {
	// Shards and VNodes echo the ring parameters.
	Shards int `json:"shards"`
	VNodes int `json:"vnodes"`
	// FastPath counts checks delegated whole to the resource owner's shard;
	// Scatter counts queries the router answered by distributed search.
	FastPath uint64 `json:"fast_path"`
	Scatter  uint64 `json:"scatter"`
	// ExpandCalls counts shard expand RPCs issued; ExpandRounds counts
	// scatter rounds (ExpandCalls/ExpandRounds is the fan-out factor).
	ExpandCalls  uint64 `json:"expand_calls"`
	ExpandRounds uint64 `json:"expand_rounds"`
	// BoundaryEdges counts cross-shard relationships (written to both
	// owners); LocalEdges counts co-located ones.
	BoundaryEdges uint64 `json:"boundary_edges"`
	LocalEdges    uint64 `json:"local_edges"`
	// Partial counts audience responses served incomplete; FailedClosed
	// counts checks refused because a shard was unreachable.
	Partial      uint64 `json:"partial"`
	FailedClosed uint64 `json:"failed_closed"`
}

// ShardStats summarizes one backend as seen from the router.
type ShardStats struct {
	Index         int    `json:"index"`
	Engine        string `json:"engine"`
	Users         int    `json:"users"`
	Relationships int    `json:"relationships"`
	Healthy       bool   `json:"healthy"`
}

// ServerStats counts serving-layer events on top of the engine counters.
type ServerStats struct {
	// CommitGroups counts coalesced commit groups the server flushed;
	// CoalescedMutations counts the mutation requests they carried.
	// CoalescedMutations/CommitGroups is the achieved write-coalescing
	// factor.
	CommitGroups       uint64 `json:"commit_groups"`
	CoalescedMutations uint64 `json:"coalesced_mutations"`
	// QueueRejected counts mutations refused because the queue was full or
	// the request deadline expired while queued; CheckRejected counts reads
	// refused by the concurrency limiter.
	QueueRejected uint64 `json:"queue_rejected"`
	CheckRejected uint64 `json:"check_rejected"`
	// QueueDepth is the instantaneous mutation queue length.
	QueueDepth int `json:"queue_depth"`
}

// StatsResponse combines the engine's counters with the server's. A shard
// router additionally reports its routing counters and per-shard summaries
// (the embedded Stats then aggregate across shards).
type StatsResponse struct {
	reachac.Stats
	Server     ServerStats  `json:"server"`
	Router     *RouterStats `json:"router,omitempty"`
	ShardStats []ShardStats `json:"shard_stats,omitempty"`
}
