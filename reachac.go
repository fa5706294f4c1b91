package reachac

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"reachac/internal/core"
	"reachac/internal/graph"
	"reachac/internal/pathexpr"
	"reachac/internal/replica"
	"reachac/internal/wal"
)

// UserID identifies a member of the network.
type UserID = graph.NodeID

// Decision is the outcome of an access check (see core.Decision).
type Decision = core.Decision

// Decision effects, re-exported for callers.
const (
	Deny  = core.Deny
	Allow = core.Allow
)

// Attr is one user attribute for AddUser.
type Attr struct {
	Key string
	Val graph.Value
}

// StringAttr builds a string-valued attribute.
func StringAttr(k, v string) Attr { return Attr{k, graph.String(v)} }

// IntAttr builds a numeric attribute from an int.
func IntAttr(k string, v int) Attr { return Attr{k, graph.Int(v)} }

// NumberAttr builds a numeric attribute.
func NumberAttr(k string, v float64) Attr { return Attr{k, graph.Number(v)} }

// BoolAttr builds a boolean attribute.
func BoolAttr(k string, v bool) Attr { return Attr{k, graph.Bool(v)} }

// EngineKind selects the reachability evaluator backing access decisions.
type EngineKind int

// Available engines.
const (
	// Online evaluates each query with a constrained BFS over the graph —
	// no precomputation, O(V+E) per query (the paper's §1 baseline).
	Online EngineKind = iota
	// Closure precomputes per-label adjacency/closure bitsets — fast
	// queries, O(V²)-ish space (the paper's other §1 baseline).
	Closure
	// Index is the paper's cluster-based join index (§3) with the anchored
	// evaluation strategy.
	Index
)

func (k EngineKind) String() string {
	switch k {
	case Online:
		return "online-bfs"
	case Closure:
		return "closure"
	case Index:
		return "join-index"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// EngineKinds lists every engine kind, in declaration order.
func EngineKinds() []EngineKind {
	return []EngineKind{Online, Closure, Index}
}

// ParseEngineKind resolves an engine name: a kind's String form, or one of
// the command-line shorthands "online" and "index".
func ParseEngineKind(name string) (EngineKind, error) {
	switch name {
	case "online":
		return Online, nil
	case "index":
		return Index, nil
	}
	kinds := EngineKinds()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		if names[i] = k.String(); name == names[i] {
			return k, nil
		}
	}
	return 0, fmt.Errorf("reachac: unknown engine kind %q (have %s)", name, strings.Join(names, ", "))
}

// Evaluator answers reachability queries; see core.Evaluator.
type Evaluator = core.Evaluator

// Network is a social graph with privacy policies and an enforcement
// engine. The zero value is not usable; call New. All methods are safe for
// concurrent use.
//
// Reads are snapshot-isolated: access checks (CanAccess, CanAccessAll,
// CheckPath, Audience) run against an immutable engine snapshot — a private
// graph clone, an evaluator built over it, and a frozen policy view —
// published through an atomic pointer, so they proceed concurrently with
// zero lock contention. Mutations (AddUser, Relate, Unrelate, Share, …)
// serialize on an internal lock and bump version counters; the first read
// after a change republishes the snapshot once, off the common hot path.
//
// Republication is incremental whenever possible: mutations are recorded in
// the graph's bounded delta log, and a retired snapshot no reader holds any
// more has its clone fast-forwarded by replaying the log (O(Δ) in the
// number of mutations) instead of re-cloned from scratch (O(V+E)); a small
// pool of retired snapshots keeps one available while Views pin others.
// Evaluators that implement core.IncrementalEvaluator advance in place too;
// the rest are rebuilt over the advanced clone. The frozen policy view is
// copy-on-write: a publication copies only what policy mutations touched
// since the previous one. Use Batch to coalesce many mutations into one
// republication.
//
// A network created by Open or Create is durable: every committed mutation
// batch is appended to a write-ahead log (one atomic record group, fsynced
// per the sync policy) before it is acknowledged, a size-triggered
// background checkpoint compacts the log, and Open recovers exactly the
// acknowledged prefix after a crash. See durable.go and internal/wal.
type Network struct {
	// mu serializes mutations of the master graph and snapshot
	// publication; readers never take it on the fast path.
	mu   sync.Mutex
	g    *graph.Graph
	kind EngineKind
	// store is the live policy store; an atomic pointer because
	// LoadPolicies replaces it wholesale while readers check staleness
	// lock-free.
	store atomic.Pointer[core.Store]
	// audit is shared by every engine incarnation so the decision trail
	// survives snapshot republication.
	audit *core.AuditLog
	// snap is the published engine snapshot; nil until the first access
	// check or UseEngine call.
	snap atomic.Pointer[snapshot]
	// spares parks retired snapshots whose graph clone is not shared with
	// the published one, oldest first, at most sparePoolCap of them.
	// Publication fast-forwards the newest one no reader holds through the
	// graph's delta log (O(Δ)) instead of re-cloning (O(V+E)); one a View
	// still pins waits here for a later publication. See publishLocked.
	// Guarded by mu.
	spares []*snapshot

	// wal, when non-nil, is the durability log a network created by Open or
	// Create appends every committed mutation batch to before acknowledging
	// it.
	// walErr poisons the network read-only after an append failure and
	// closed marks Close; both are guarded by mu. See durable.go.
	wal      *wal.Log
	walErr   error
	closed   bool
	recovery RecoveryInfo
	// group is the record group a durable batch encodes into, reset after
	// each commit and kept between batches up to wal.RetainMax, so a small
	// batch allocates none and a bulk one's buffer goes with it. Guarded
	// by mu.
	group wal.Group
	// ckptEvery is the segment size triggering a background checkpoint;
	// ckptActive admits one checkpointer at a time, ckptWG lets Close and
	// Checkpoint wait for it, and ckptErr (guarded by ckptMu, not mu)
	// retains the first background failure.
	ckptEvery  int64
	ckptActive atomic.Bool
	ckptWG     sync.WaitGroup
	ckptMu     sync.Mutex
	ckptErr    error

	// replSource serves this leader's WAL to followers (nil on non-durable
	// networks); follower, when non-nil, marks the network a read replica —
	// every mutation is ErrReadOnly and state advances only through
	// applyReplicated. See follow.go and internal/replica.
	replSource *replica.Source
	follower   *replica.Follower
	// fencedEpoch, when non-zero, is a HIGHER leadership epoch this leader
	// observed through its replication endpoints: a follower was promoted
	// elsewhere, so this leader is superseded and fences itself — every
	// further mutation is ErrReadOnly, before the histories can diverge.
	// See Network.ObserveEpoch in durable.go.
	fencedEpoch atomic.Uint64

	// ctr tallies operations for Stats.
	ctr counters
}

// New returns an empty network using the Online engine. Options are the
// same as Open's; WAL-specific ones (sync policy, checkpoint cadence) have
// no effect on a non-durable network.
func New(opts ...Option) *Network {
	return newNetwork(graph.New(), core.NewStore()).applyOptions(opts)
}

func newNetwork(g *graph.Graph, store *core.Store) *Network {
	n := &Network{g: g, kind: Online, audit: core.NewAuditLog(0)}
	n.store.Store(store)
	return n
}

// applyOptions folds constructor options into a fresh (not yet shared)
// network.
func (n *Network) applyOptions(opts []Option) *Network {
	n.kind = newOpenConfig(opts).kind
	return n
}

// AddUser adds a member with optional attributes and returns their ID. On a
// durable network the addition is logged and fsynced before it returns.
func (n *Network) AddUser(name string, attrs ...Attr) (UserID, error) {
	var id UserID
	err := n.Batch(func(tx *Tx) error {
		var e error
		id, e = tx.AddUser(name, attrs...)
		return e
	})
	return id, err
}

// addUserLocked is AddUser's body, shared with Tx. Callers hold n.mu.
func (n *Network) addUserLocked(name string, attrs []Attr) (UserID, error) {
	var a graph.Attrs
	if len(attrs) > 0 {
		a = make(graph.Attrs, len(attrs))
		for _, at := range attrs {
			a[at.Key] = at.Val
		}
	}
	id, err := n.g.AddNode(name, a)
	if err != nil {
		return id, fmt.Errorf("reachac: user %q: %w", name, ErrDuplicateUser)
	}
	return id, nil
}

// MustAddUser is AddUser panicking on error, for examples and tests.
func (n *Network) MustAddUser(name string, attrs ...Attr) UserID {
	id, err := n.AddUser(name, attrs...)
	if err != nil {
		panic(err)
	}
	return id
}

// UserID resolves a member name.
func (n *Network) UserID(name string) (UserID, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.g.NodeByName(name)
}

// UserName returns the name of a member.
func (n *Network) UserName(id UserID) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.g.Node(id).Name
}

// Relate adds a directed typed relationship.
func (n *Network) Relate(from, to UserID, relType string) error {
	return n.Batch(func(tx *Tx) error { return tx.Relate(from, to, relType) })
}

// RelateMutual adds the relationship in both directions (e.g. friendship on
// symmetric networks), atomically: if the second direction cannot be added
// (say, it already exists), the first is rolled back, so a mutual
// relationship is never left half-applied.
func (n *Network) RelateMutual(a, b UserID, relType string) error {
	return n.Batch(func(tx *Tx) error {
		if err := tx.Relate(a, b, relType); err != nil {
			return err
		}
		return tx.Relate(b, a, relType)
	})
}

// Unrelate removes a relationship; it is an error if absent.
func (n *Network) Unrelate(from, to UserID, relType string) error {
	return n.Batch(func(tx *Tx) error { return tx.Unrelate(from, to, relType) })
}

// NumUsers returns the member count.
func (n *Network) NumUsers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.g.NumNodes()
}

// NumRelationships returns the live relationship count.
func (n *Network) NumRelationships() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.g.NumEdges()
}

// Save serializes the social graph ONLY — policies are deliberately not
// included, so a graph file stays exchangeable with gengraph/acquery. Pair
// it with SavePolicies, or use SaveState to persist both in one stream.
func (n *Network) Save(w io.Writer) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.g.Write(w)
}

// Load reads a social graph serialized by Save into a fresh network. The
// policy store starts EMPTY: Save/Load round-trip the graph half of the
// state only. Restore policies with LoadPolicies, or persist and restore
// both halves together with SaveState/LoadState.
func Load(r io.Reader) (*Network, error) {
	g, err := graph.Read(r)
	if err != nil {
		return nil, err
	}
	return newNetwork(g, core.NewStore()), nil
}

// SaveState serializes the whole network state — graph AND policies — as a
// single stream in the WAL checkpoint format, a consistent point-in-time
// snapshot even while readers run.
func (n *Network) SaveState(w io.Writer) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return wal.WriteState(w, n.g, n.store.Load())
}

// LoadState reads a stream written by SaveState into a fresh (non-durable)
// network, graph and policies both.
func LoadState(r io.Reader) (*Network, error) {
	g, s, err := wal.ReadState(r)
	if err != nil {
		return nil, err
	}
	return newNetwork(g, s), nil
}

// FromGraph wraps an existing social graph (used by the command-line tools
// and benchmarks; the graph must not be mutated externally afterwards).
// Options are the same as New's. Create is its durable twin.
func FromGraph(g *graph.Graph, opts ...Option) *Network {
	return newNetwork(g, core.NewStore()).applyOptions(opts)
}

// Graph exposes the underlying master graph for inspection. Mutating it
// directly is detected via its version counter (the next access check
// republishes the engine snapshot), but is not safe concurrently with other
// Network calls; prefer the Network mutators.
func (n *Network) Graph() *graph.Graph { return n.g }

// Store exposes the live policy store.
func (n *Network) Store() *core.Store { return n.store.Load() }

// UseEngine selects the evaluator kind for subsequent access checks. The
// engine snapshot is (re)built and published immediately; an error leaves
// the previous engine in place.
func (n *Network) UseEngine(kind EngineKind) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	prev := n.kind
	n.kind = kind
	if _, err := n.publishLocked(); err != nil {
		n.kind = prev
		return err
	}
	return nil
}

// EngineKind reports the selected engine.
func (n *Network) EngineKind() EngineKind {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.kind
}

// Share registers resource to owner (if new) and attaches one access rule
// whose conditions are the given path expressions, ALL of which a requester
// must satisfy. Calling Share again on the same resource adds an
// alternative rule (any valid rule grants access). It returns the rule ID.
func (n *Network) Share(resource string, owner UserID, paths ...string) (string, error) {
	var id string
	err := n.Batch(func(tx *Tx) error {
		var e error
		id, e = tx.Share(resource, owner, paths...)
		return e
	})
	return id, err
}

// shareLocked is Share's body, shared with Tx. It returns the assigned rule
// ID and the canonical condition strings (the WAL record payload). Callers
// hold n.mu.
func (n *Network) shareLocked(resource string, owner UserID, paths []string) (string, []string, error) {
	if len(paths) == 0 {
		return "", nil, fmt.Errorf("reachac: Share needs at least one path expression")
	}
	if !n.g.ValidNode(owner) {
		return "", nil, fmt.Errorf("reachac: share of %q by user %d: %w", resource, owner, ErrUnknownUser)
	}
	conds := make([]core.Condition, len(paths))
	canonical := make([]string, len(paths))
	for i, s := range paths {
		p, err := pathexpr.Parse(s)
		if err != nil {
			return "", nil, err
		}
		conds[i] = core.Condition{Path: p}
		canonical[i] = p.String()
	}
	// Load the store once: registering in one store and adding the rule to
	// another (swapped in by a concurrent LoadPolicies) would orphan the rule.
	store := n.store.Load()
	if cur, ok := store.Owner(core.ResourceID(resource)); ok && cur != owner {
		return "", nil, fmt.Errorf("reachac: share of %q by user %d (owned by %d): %w",
			resource, owner, cur, ErrResourceOwned)
	}
	if err := store.Register(core.ResourceID(resource), owner); err != nil {
		return "", nil, err
	}
	rule := &core.Rule{Resource: core.ResourceID(resource), Owner: owner, Conditions: conds}
	if err := store.AddRule(rule); err != nil {
		return "", nil, err
	}
	return rule.ID, canonical, nil
}

// Revoke removes a rule from a resource; it reports whether it existed.
// false also covers the failure modes of a durable network — closed,
// poisoned, or a failed WAL append (in which case the removal was rolled
// back and the rule still grants access); callers that must distinguish
// should use Batch and Tx.Revoke, whose commit error is returned.
func (n *Network) Revoke(resource, ruleID string) bool {
	var ok bool
	if err := n.Batch(func(tx *Tx) error {
		ok = tx.Revoke(resource, ruleID)
		return nil
	}); err != nil {
		// The commit failed and the removal was rolled back.
		return false
	}
	return ok
}

// CanAccess decides whether requester may access resource under the current
// policies, using the selected engine. The check runs against the current
// engine snapshot (republished first if the graph or policies changed), so
// concurrent checks never contend on a lock. Every call is evaluated afresh
// and recorded in the audit trail.
func (n *Network) CanAccess(resource string, requester UserID) (Decision, error) {
	s, err := n.snapshot()
	if err != nil {
		return Decision{}, err
	}
	defer s.release()
	n.ctr.checks.Add(1)
	return s.engine.Decide(core.ResourceID(resource), requester)
}

// CheckPath answers a raw reachability question: does a path matching expr
// lead from owner to requester?
func (n *Network) CheckPath(owner, requester UserID, expr string) (bool, error) {
	p, err := pathexpr.Parse(expr)
	if err != nil {
		return false, err
	}
	s, err := n.snapshot()
	if err != nil {
		return false, err
	}
	defer s.release()
	n.ctr.checks.Add(1)
	return s.eval.Reachable(owner, requester, p)
}

// Audit returns the retained decision trail. The trail is shared across
// engine snapshots, so it survives graph mutations and engine switches.
func (n *Network) Audit() []Decision {
	return n.audit.Decisions()
}

// ParsePath validates a path expression, returning its canonical form.
func ParsePath(expr string) (string, error) {
	p, err := pathexpr.Parse(expr)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

// SavePolicies serializes the policy store (resources, owners, rules) to w.
// Together with Save this persists the whole network state.
func (n *Network) SavePolicies(w io.Writer) error {
	return n.store.Load().Write(w)
}

// LoadPolicies replaces the network's policy store with one read from r.
// Rule owners are validated against the current graph. The engine snapshot
// is republished on the next access check. On a durable network the
// replacement is logged (as a whole-store record) before it takes effect.
func (n *Network) LoadPolicies(r io.Reader) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.writeGuardLocked(); err != nil {
		return err
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	store, err := core.ReadStore(bytes.NewReader(data), n.g)
	if err != nil {
		return err
	}
	// Swap before committing: commitLocked may trigger a checkpoint, and
	// that checkpoint must snapshot the NEW store — the record group it
	// supersedes includes this very reset. On append failure the swap is
	// undone (the network is poisoned read-only regardless).
	old := n.store.Load()
	n.store.Store(store)
	if n.wal == nil {
		return nil
	}
	defer n.group.Reset()
	op := wal.PolicyResetOp(data)
	if err = n.group.Add(&op); err == nil {
		err = n.commitLocked(&n.group)
	}
	if err != nil {
		n.store.Store(old)
		return err
	}
	return nil
}

// Audience enumerates every user granted access to resource by its current
// rules (excluding the owner, who always has access). Like CanAccess it
// runs against the current engine snapshot, concurrently with other reads.
// An unregistered resource is ErrUnknownResource.
func (n *Network) Audience(resource string) ([]UserID, error) {
	s, err := n.snapshot()
	if err != nil {
		return nil, err
	}
	defer s.release()
	n.ctr.audiences.Add(1)
	return s.audience(resource)
}

// PathAudience enumerates every user a path expression starting at owner
// reaches — the audience a Share with that single condition would grant.
// Like the other reads it runs against the current engine snapshot.
func (n *Network) PathAudience(owner UserID, expr string) ([]UserID, error) {
	s, err := n.snapshot()
	if err != nil {
		return nil, err
	}
	defer s.release()
	n.ctr.audiences.Add(1)
	return s.pathAudience(owner, expr)
}
