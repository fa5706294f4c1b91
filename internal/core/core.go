// Package core implements the paper's access control model (§2): user
// privacy preferences are stored as access rules (Definition 2), each a set
// of access conditions (Definition 3) whose path expressions must all be
// satisfied by a requester. Each time a user requests a resource, the
// system intercepts the request and, on the basis of the rules, grants or
// denies access.
//
// Semantics implemented here:
//
//   - Deny by default: a resource with no registered rules, or an unknown
//     resource, is accessible only to its owner.
//   - The owner always has access to their own resource.
//   - A rule grants access iff ALL of its access conditions are validated
//     ("In order to be valid, an access rule should have all its access
//     conditions validated", §2).
//   - Multiple rules on one resource are alternative audiences: access is
//     granted iff at least one rule is valid.
//
// Validating a condition reduces to an ordered label-constraint
// reachability query between owner and requester, delegated to an Evaluator
// (the online search that serves checks, or one of the paper's index
// libraries: the transitive closure and the cluster-based join index).
package core

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// ResourceID identifies a shared resource (photo, note, profile field, …).
type ResourceID string

// Condition is one access condition (o, p) of Definition 3; the owner o is
// carried by the enclosing rule.
type Condition struct {
	// Path is the reachability constraint the requester must satisfy
	// relative to the owner.
	Path *pathexpr.Path
}

// Rule is an access rule (rid, ACS) of Definition 2, issued by the resource
// owner. All conditions must hold for the rule to grant access.
type Rule struct {
	// ID names the rule within its resource, for auditing.
	ID string
	// Resource is the rid of Definition 2.
	Resource ResourceID
	// Owner is the node the conditions' paths start from.
	Owner graph.NodeID
	// Conditions all must be satisfied (conjunction).
	Conditions []Condition
	// allowReason is the Decision.Reason of an allow this rule grants,
	// rendered once by Store.AddRule (a stored rule never changes).
	allowReason string
}

// Validate checks structural sanity of the rule.
func (r *Rule) Validate() error {
	if r.Resource == "" {
		return fmt.Errorf("core: rule %q has empty resource", r.ID)
	}
	if len(r.Conditions) == 0 {
		return fmt.Errorf("core: rule %q has no conditions", r.ID)
	}
	for i, c := range r.Conditions {
		if c.Path == nil {
			return fmt.Errorf("core: rule %q condition %d has nil path", r.ID, i)
		}
		if err := c.Path.Validate(); err != nil {
			return fmt.Errorf("core: rule %q condition %d: %w", r.ID, i, err)
		}
	}
	return nil
}

// Evaluator answers ordered label-constraint reachability queries. The
// engines in internal/search, internal/tclosure and internal/joinindex all
// implement it.
type Evaluator interface {
	Reachable(owner, requester graph.NodeID, p *pathexpr.Path) (bool, error)
}

// storeFanout is the number of buckets a Store spreads its resources over.
// It fixes the cost of Clone (one spine copy) and bounds what a mutation
// copies (one bucket: 1/storeFanout of the resources).
const storeFanout = 256

// bucketSeed keys the resource → bucket hash; one seed per process, so a
// Store and its clones agree on every resource's bucket.
var bucketSeed = maphash.MakeSeed()

func bucketOf(res ResourceID) int {
	return int(maphash.String(bucketSeed, string(res)) % storeFanout)
}

// resourcePolicy is one resource's registration and rules. It is immutable
// once stored, rule slice included — mutations store a replacement — so
// stores, clones and RulesFor callers may share it.
type resourcePolicy struct {
	res   ResourceID
	owner graph.NodeID
	rules []*Rule
}

// bucket holds the resources of one spine slot, sorted by ID. Only the
// store whose tag it carries may change it in place; every other holder
// copies it first.
type bucket struct {
	tag     uint64
	entries []*resourcePolicy
}

// storeTags hands out bucket tags, each used by one store at a time.
var storeTags atomic.Uint64

// Store holds resource ownership and the access rules protecting each
// resource. It is safe for concurrent use.
//
// The resources live in a persistent two-level structure: a fixed spine of
// buckets. Clone copies the spine and retags both stores, which disowns
// every existing bucket at once; the first mutation of a disowned bucket
// copies that bucket. A frozen view therefore costs O(storeFanout) to take
// and O(resources touched) to diverge from, however many resources exist.
type Store struct {
	mu      sync.RWMutex
	buckets [storeFanout]*bucket
	tag     uint64
	count   int
	nextID  int
	// paths interns rule paths by canonical text (see intern). It belongs to
	// the store rules are added to; clones start without one.
	paths map[string]*pathexpr.Path
	// gen counts policy mutations (registrations, rule additions and
	// removals). Snapshot-isolated readers record it to detect staleness;
	// it is atomic so the check needs no lock.
	gen atomic.Uint64
}

// Generation returns the policy mutation counter: it changes whenever a
// resource is registered or a rule is added or removed. Like
// graph.Graph.Version it is safe to read concurrently with mutations.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// NewStore returns an empty policy store.
func NewStore() *Store { return &Store{tag: storeTags.Add(1)} }

// Clone returns an independent copy of the store — a frozen policy view for
// snapshot-isolated evaluation — in O(storeFanout): everything is shared
// until either side mutates it (see Store). Later mutations of s are
// invisible to the clone and vice versa.
func (s *Store) Clone() *Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tag = storeTags.Add(1)
	return &Store{buckets: s.buckets, tag: storeTags.Add(1), count: s.count, nextID: s.nextID}
}

// find locates res: its bucket (nil if the slot is empty), its position
// there — or where it would be inserted — and whether it is present.
// Callers hold s.mu.
func (s *Store) find(res ResourceID) (b *bucket, i int, ok bool) {
	if b = s.buckets[bucketOf(res)]; b != nil {
		i, ok = slices.BinarySearchFunc(b.entries, res, func(p *resourcePolicy, r ResourceID) int {
			return strings.Compare(string(p.res), string(r))
		})
	}
	return b, i, ok
}

// own returns res's bucket ready to be changed in place: created if absent,
// copied first if a clone (or the store s was cloned from) may share it.
// Positions returned by find stay valid. Callers hold s.mu for writing.
func (s *Store) own(res ResourceID) *bucket {
	slot := &s.buckets[bucketOf(res)]
	if b := *slot; b == nil {
		*slot = &bucket{tag: s.tag}
	} else if b.tag != s.tag {
		*slot = &bucket{tag: s.tag, entries: slices.Clone(b.entries)}
	}
	return *slot
}

// lookup returns res's registration and rules, nil if it has none.
func (s *Store) lookup(res ResourceID) *resourcePolicy {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if b, i, ok := s.find(res); ok {
		return b.entries[i]
	}
	return nil
}

// Register declares a resource and its owner. Re-registering with a
// different owner is an error.
func (s *Store) Register(res ResourceID, owner graph.NodeID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, i, ok := s.find(res)
	if ok {
		if cur := b.entries[i].owner; cur != owner {
			return fmt.Errorf("core: resource %q already owned by node %d", res, cur)
		}
		return nil
	}
	b = s.own(res)
	b.entries = slices.Insert(b.entries, i, &resourcePolicy{res: res, owner: owner})
	s.count++
	s.gen.Add(1)
	return nil
}

// Unregister removes a resource registration, provided no rules are
// attached, and reports whether it did. It exists so a rolled-back batch
// can undo the registration its Share created (the rule itself having been
// removed first).
func (s *Store) Unregister(res ResourceID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, i, ok := s.find(res)
	if !ok || len(b.entries[i].rules) > 0 {
		return false
	}
	b = s.own(res)
	b.entries = slices.Delete(b.entries, i, i+1)
	s.count--
	s.gen.Add(1)
	return true
}

// Owner returns the owner of a registered resource.
func (s *Store) Owner(res ResourceID) (graph.NodeID, bool) {
	if p := s.lookup(res); p != nil {
		return p.owner, true
	}
	return 0, false
}

// AddRule attaches a rule to its resource. The resource must be registered
// and owned by the rule's owner. An empty rule ID is assigned automatically.
func (s *Store) AddRule(r *Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, i, ok := s.find(r.Resource)
	if !ok {
		return fmt.Errorf("core: resource %q not registered", r.Resource)
	}
	p := b.entries[i]
	if p.owner != r.Owner {
		return fmt.Errorf("core: rule owner %d is not resource owner %d", r.Owner, p.owner)
	}
	if r.ID == "" {
		s.nextID++
		r.ID = fmt.Sprintf("rule-%d", s.nextID)
	} else if n, ok := ruleSeq(r.ID); ok && n > s.nextID {
		// An explicit auto-style ID (rule-N) — as restored by ReadStore or
		// WAL replay — must advance the counter, or the next auto-assigned
		// ID would collide with it.
		s.nextID = n
	}
	for _, existing := range p.rules {
		if existing.ID == r.ID {
			return fmt.Errorf("core: duplicate rule id %q on resource %q", r.ID, r.Resource)
		}
	}
	r.allowReason = fmt.Sprintf("all conditions of rule %q satisfied", r.ID)
	for j, c := range r.Conditions {
		r.Conditions[j].Path = s.intern(c.Path)
	}
	// Clip first, so that the append copies (see resourcePolicy).
	s.own(r.Resource).entries[i] = &resourcePolicy{res: p.res, owner: p.owner, rules: append(slices.Clip(p.rules), r)}
	s.gen.Add(1)
	return nil
}

// maxInternedPaths bounds Store.paths. Rules are written from a handful of
// expression templates; a store that has seen this many distinct ones starts
// the table over, which costs later rules some sharing and nothing else.
const maxInternedPaths = 4096

// intern returns the path the store already holds for p's expression, or p
// itself after remembering it: a rule set has far more rules than distinct
// expressions, and structurally equal conditions then share one immutable
// Path. Callers hold s.mu for writing.
func (s *Store) intern(p *pathexpr.Path) *pathexpr.Path {
	key := p.String()
	if q, ok := s.paths[key]; ok {
		return q
	}
	if s.paths == nil || len(s.paths) >= maxInternedPaths {
		s.paths = make(map[string]*pathexpr.Path)
	}
	s.paths[key] = p
	return p
}

// ruleSeq parses an auto-assigned rule ID of the form "rule-N".
func ruleSeq(id string) (int, bool) {
	const prefix = "rule-"
	if len(id) <= len(prefix) || id[:len(prefix)] != prefix {
		return 0, false
	}
	n := 0
	for _, c := range id[len(prefix):] {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int(c - '0')
		if n > (1<<31-1-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// RemoveRule detaches a rule by id; it reports whether the rule existed.
func (s *Store) RemoveRule(res ResourceID, ruleID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, i, ok := s.find(res)
	if !ok {
		return false
	}
	p := b.entries[i]
	for j, r := range p.rules {
		if r.ID == ruleID {
			// Copy, never splice in place (see resourcePolicy).
			s.own(res).entries[i] = &resourcePolicy{res: res, owner: p.owner, rules: slices.Delete(slices.Clone(p.rules), j, j+1)}
			s.gen.Add(1)
			return true
		}
	}
	return false
}

// RulesFor returns the rules protecting a resource. The slice is shared
// with the store and its clones: callers must not modify it.
func (s *Store) RulesFor(res ResourceID) []*Rule {
	if p := s.lookup(res); p != nil {
		return p.rules
	}
	return nil
}

// Resources returns all registered resource IDs, sorted.
func (s *Store) Resources() []ResourceID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ResourceID, 0, s.count)
	for _, p := range s.sortedLocked() {
		out = append(out, p.res)
	}
	return out
}

// sortedLocked returns every resource's policy in resource-ID order.
// Callers hold s.mu.
func (s *Store) sortedLocked() []*resourcePolicy {
	out := make([]*resourcePolicy, 0, s.count)
	for _, b := range s.buckets {
		if b != nil {
			out = append(out, b.entries...)
		}
	}
	slices.SortFunc(out, func(x, y *resourcePolicy) int { return strings.Compare(string(x.res), string(y.res)) })
	return out
}

// Effect is the outcome of an access decision.
type Effect uint8

// Decision effects.
const (
	Deny Effect = iota
	Allow
)

// String renders the effect as "allow" or "deny".
func (e Effect) String() string {
	if e == Allow {
		return "allow"
	}
	return "deny"
}

// Decision records the outcome of one access request.
type Decision struct {
	Resource  ResourceID
	Requester graph.NodeID
	Effect    Effect
	// RuleID is the granting rule, "owner" for owner access, "" on deny.
	RuleID string
	// Reason is a human-readable explanation.
	Reason string
}

// AuditLog is a bounded, concurrency-safe decision trail. It is shared by
// pointer so that a trail survives engine rebuilds (e.g. snapshot
// republication after a graph mutation).
//
// The trail is a ring: it grows by appending until it holds limit
// decisions, and from then on each decision overwrites the oldest in place,
// so a warm trail records without allocating.
type AuditLog struct {
	mu    sync.Mutex
	trail []Decision
	// next is where the next decision goes once the trail is full; it is
	// also the oldest retained decision.
	next  int
	limit int
}

// NewAuditLog returns an audit log retaining at most limit decisions
// (0 keeps the default of 1024 entries; negative disables auditing).
func NewAuditLog(limit int) *AuditLog {
	if limit == 0 {
		limit = 1024
	}
	return &AuditLog{limit: limit}
}

// Record appends one decision, evicting the oldest beyond the limit.
func (l *AuditLog) Record(d Decision) {
	if l.limit < 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.trail) < l.limit {
		l.trail = append(l.trail, d)
		return
	}
	l.trail[l.next] = d
	l.next = (l.next + 1) % l.limit
}

// Decisions returns a copy of the retained trail, oldest first.
func (l *AuditLog) Decisions() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Concat(l.trail[l.next:], l.trail[:l.next])
}

// Len returns the retained trail length without copying it.
func (l *AuditLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.trail)
}

// Engine intercepts access requests and decides them against a Store using
// an Evaluator, keeping a bounded audit trail. Decide is safe for concurrent
// use provided the Store and Evaluator are (a frozen Store clone and a
// read-only evaluator in the snapshot-isolated configuration).
type Engine struct {
	store *Store
	eval  Evaluator
	log   *AuditLog
}

// NewEngine returns a decision engine. auditLimit bounds the retained audit
// trail (0 keeps the default of 1024 entries; negative disables auditing).
func NewEngine(store *Store, eval Evaluator, auditLimit int) *Engine {
	return NewEngineWithLog(store, eval, NewAuditLog(auditLimit))
}

// NewEngineWithLog returns a decision engine recording to an existing audit
// log, so that several engine incarnations share one trail.
func NewEngineWithLog(store *Store, eval Evaluator, log *AuditLog) *Engine {
	return &Engine{store: store, eval: eval, log: log}
}

// Decide answers one access request: may requester access res?
func (e *Engine) Decide(res ResourceID, requester graph.NodeID) (Decision, error) {
	d := Decision{Resource: res, Requester: requester}
	pol := e.store.lookup(res)
	if pol == nil {
		d.Reason = "unknown resource"
		e.record(d)
		return d, nil
	}
	if pol.owner == requester {
		d.Effect = Allow
		d.RuleID = "owner"
		d.Reason = "requester owns the resource"
		e.record(d)
		return d, nil
	}
	for _, rule := range pol.rules {
		valid := true
		for _, cond := range rule.Conditions {
			ok, err := e.eval.Reachable(rule.Owner, requester, cond.Path)
			if err != nil {
				return Decision{}, fmt.Errorf("core: evaluating rule %q: %w", rule.ID, err)
			}
			if !ok {
				valid = false
				break
			}
		}
		if valid {
			d.Effect = Allow
			d.RuleID = rule.ID
			d.Reason = rule.allowReason
			e.record(d)
			return d, nil
		}
	}
	d.Reason = "no access rule satisfied"
	e.record(d)
	return d, nil
}

func (e *Engine) record(d Decision) { e.log.Record(d) }

// Audit returns a copy of the retained decision trail, oldest first.
func (e *Engine) Audit() []Decision { return e.log.Decisions() }

// Log returns the engine's audit log.
func (e *Engine) Log() *AuditLog { return e.log }
