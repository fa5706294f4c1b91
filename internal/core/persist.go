package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"reachac/internal/codec"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// Policies are persisted as line-delimited JSON: one header, then one record
// per resource carrying its owner and rules (conditions as path-expression
// strings, which Parse round-trips exactly). The record types below define
// the format by their tags; Write and ReadStore append and scan it on the
// internal/codec kernel, under its equivalence contract with encoding/json.

const policyMagic = "reachac-policy-v1"

type policyHeader struct {
	Magic     string `json:"magic"`
	Resources int    `json:"resources"`
}

type policyRule struct {
	ID         string   `json:"id"`
	Conditions []string `json:"conditions"`
}

type policyResource struct {
	Resource string       `json:"resource"`
	Owner    uint32       `json:"owner"`
	Rules    []policyRule `json:"rules,omitempty"`
}

// Write serializes the store to w.
func (s *Store) Write(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriter(w)
	buf := strconv.AppendInt([]byte(`{"magic":"`+policyMagic+`","resources":`), int64(s.count), 10)
	buf = append(buf, "}\n"...)
	bw.Write(buf)
	// Deterministic order via sorted resource IDs.
	for _, p := range s.sortedLocked() {
		buf = codec.AppendString(append(buf[:0], `{"resource":`...), string(p.res))
		buf = strconv.AppendUint(append(buf, `,"owner":`...), uint64(p.owner), 10)
		if len(p.rules) > 0 {
			buf = append(buf, `,"rules":[`...)
			for i, rule := range p.rules {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = appendPolicyRule(buf, rule)
			}
			buf = append(buf, ']')
		}
		buf = append(buf, "}\n"...)
		bw.Write(buf)
	}
	return bw.Flush()
}

// appendPolicyRule appends rule as json.Marshal writes its policyRule.
func appendPolicyRule(dst []byte, rule *Rule) []byte {
	dst = codec.AppendString(append(dst, `{"id":`...), rule.ID)
	if len(rule.Conditions) == 0 {
		return append(dst, `,"conditions":null}`...)
	}
	dst = append(dst, `,"conditions":[`...)
	for i, c := range rule.Conditions {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = codec.AppendString(dst, c.Path.String())
	}
	return append(dst, "]}"...)
}

// ReadStore deserializes a store written by Write. Owners are validated
// against g.
func ReadStore(r io.Reader, g *graph.Graph) (*Store, error) {
	lines := codec.NewLines(r)
	hdr, err := codec.Next(lines, scanPolicyHeader)
	if err != nil {
		return nil, fmt.Errorf("core: reading policy header: %w", err)
	}
	if hdr.Magic != policyMagic {
		return nil, fmt.Errorf("core: bad policy magic %q", hdr.Magic)
	}
	s := NewStore()
	for i := 0; i < hdr.Resources; i++ {
		rec, err := codec.Next(lines, scanPolicyResource)
		if err != nil {
			return nil, fmt.Errorf("core: reading policy resource %d: %w", i, err)
		}
		owner := graph.NodeID(rec.Owner)
		if !g.ValidNode(owner) {
			return nil, fmt.Errorf("core: resource %q owner %d not in graph", rec.Resource, rec.Owner)
		}
		if err := s.Register(ResourceID(rec.Resource), owner); err != nil {
			return nil, err
		}
		for _, pr := range rec.Rules {
			rule := &Rule{ID: pr.ID, Resource: ResourceID(rec.Resource), Owner: owner}
			for _, cs := range pr.Conditions {
				p, err := pathexpr.Parse(cs)
				if err != nil {
					return nil, fmt.Errorf("core: rule %q condition %q: %w", pr.ID, cs, err)
				}
				rule.Conditions = append(rule.Conditions, Condition{Path: p})
			}
			if err := s.AddRule(rule); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func scanPolicyHeader(s *codec.Scanner) (h policyHeader) {
	s.Object(func(key []byte) uint32 {
		switch string(key) {
		case "magic":
			h.Magic = s.Str()
			return 1
		case "resources":
			h.Resources = int(s.Int(64))
			return 2
		}
		return 0
	})
	return h
}

func scanPolicyResource(s *codec.Scanner) (r policyResource) {
	s.Object(func(key []byte) uint32 {
		switch string(key) {
		case "resource":
			r.Resource = s.Str()
			return 1
		case "owner":
			r.Owner = uint32(s.Uint(32))
			return 2
		case "rules":
			r.Rules = []policyRule{}
			s.Array(func() { r.Rules = append(r.Rules, scanPolicyRule(s)) })
			return 4
		}
		return 0
	})
	return r
}

func scanPolicyRule(s *codec.Scanner) (r policyRule) {
	s.Object(func(key []byte) uint32 {
		switch string(key) {
		case "id":
			r.ID = s.Str()
			return 1
		case "conditions":
			r.Conditions = s.Strings()
			return 2
		}
		return 0
	})
	return r
}

// Audience enumerates every member the rules of res admit, excluding the
// owner (who always has access), in ascending node-ID order:
// ∪_rules ∩_conditions set(rule.Owner, condition), where set returns one
// condition's audience in ascending node-ID order (see
// search.Engine.AudienceSet). The set algebra runs on sorted merges — one
// set call per condition, no per-member queries and no hashing — and the
// result is always freshly allocated; the sets are never modified.
func (s *Store) Audience(res ResourceID, set func(owner graph.NodeID, p *pathexpr.Path) ([]graph.NodeID, error)) ([]graph.NodeID, error) {
	owner, ok := s.Owner(res)
	if !ok {
		return nil, fmt.Errorf("core: resource %q not registered", res)
	}
	out := []graph.NodeID{}
	for _, rule := range s.RulesFor(res) {
		var inter []graph.NodeID
		for ci, cond := range rule.Conditions {
			members, err := set(rule.Owner, cond.Path)
			if err != nil {
				return nil, err
			}
			if ci == 0 {
				inter = members
			} else {
				inter = intersectSorted(inter, members)
			}
			if len(inter) == 0 {
				break
			}
		}
		out = unionSortedExcluding(out, inter, owner)
	}
	return out, nil
}

// intersectSorted returns the intersection of two ascending slices as a new
// slice, leaving both inputs untouched.
func intersectSorted(a, b []graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// unionSortedExcluding merges two ascending slices into a fresh slice,
// dropping excl (which may appear only in b), leaving both inputs untouched.
func unionSortedExcluding(a, b []graph.NodeID, excl graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			if b[j] != excl {
				out = append(out, b[j])
			}
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	for ; j < len(b); j++ {
		if b[j] != excl {
			out = append(out, b[j])
		}
	}
	return out
}
