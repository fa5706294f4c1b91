// Package reachac is a reachability-based access control library for social
// networks, implementing Ben Dhia's EDBT/ICDT 2012 model: users protect
// shared resources with access rules whose audience is a path expression
// over the social graph — e.g. "friend+[1,2]/colleague+[1]" grants access to
// the colleagues of my friends, up to friends-of-friends.
//
// The package wraps the full implementation: the labeled social graph, the
// path-expression policy language and the policy store with deny-by-default
// enforcement. Every check is decided by online constrained search from
// both endpoints (internal/search). The paper's cluster-based join index
// (line graph → SCC condensation → interval labeling → 2-hop cover →
// W-table) and the per-label transitive closure it is measured against are
// libraries (internal/joinindex, internal/tclosure) behind cmd/figures,
// cmd/experiments and the tests that cross-check the search against them.
//
// Quick start:
//
//	n := reachac.New()
//	alice := n.MustAddUser("alice")
//	bob := n.MustAddUser("bob")
//	n.Relate(alice, bob, "friend")
//	n.Share("alice/photos", alice, "friend+[1,2]")
//	d, _ := n.CanAccess("alice/photos", bob)
//	fmt.Println(d.Effect) // allow
//
// All Network methods are safe for concurrent use. Access checks are
// snapshot-isolated: they run lock-free against an immutable published
// engine snapshot, so read throughput scales with cores, and every decision
// is evaluated afresh and audited; CanAccessAll batches many requesters against one
// consistent snapshot. Republication after a mutation is incremental
// (O(Δ) via the graph's delta log) whenever possible, and Batch coalesces
// many mutations into one republication. See ARCHITECTURE.md for the
// publication protocol.
//
// Networks created with Open(dir) are durable: every acknowledged mutation
// batch is appended to a write-ahead log as one atomic, CRC-framed record
// group (fsynced per the configured sync policy) before the mutator
// returns, a size-triggered background checkpoint compacts the log, and
// Open recovers exactly the acknowledged prefix after a crash — a torn
// final record is dropped, not fatal. See the "Durability and recovery"
// section of ARCHITECTURE.md.
//
// The serving stack (cmd/acserverd + the client package) exposes the same
// surface over HTTP; cmd/acbench load-tests both — embedded facade and
// daemon — with named mixed-operation scenarios and writes the
// machine-readable perf artifact CI gates regressions on. Stats returns
// the operation counters both tools sample; Stats.Delta bounds a window.
//
// See the examples/ directory for complete programs.
package reachac
