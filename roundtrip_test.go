package reachac

import (
	"bytes"
	"testing"
)

// TestPersistenceRoundTrips drives table-driven scenarios that interleave
// mutations, engine switches and every persistence surface the facade
// offers — Save/Load (graph only), SavePolicies/LoadPolicies (policies
// only), SaveState/LoadState (both) — and asserts the expected decisions at
// marked points. It pins the documented split: Save/Load alone silently
// yields an empty policy store, which is why each save step says which
// halves it round-trips.
func TestPersistenceRoundTrips(t *testing.T) {
	// Step kinds:
	//   user:NAME            add a user
	//   rel:FROM,TO,LABEL    add a relationship
	//   unrel:FROM,TO,LABEL  remove one
	//   share:RES,OWNER,PATH attach a rule
	//   engine:KIND          switch engines (a ParseEngineKind name)
	//   graph-rt             round-trip through Save/Load (policies LOST)
	//   policy-rt            round-trip policies through SavePolicies/LoadPolicies
	//   full-rt              round-trip through Save+SavePolicies/Load+LoadPolicies
	//   state-rt             round-trip through SaveState/LoadState
	//   allow:RES,USER / deny:RES,USER / nores:RES,USER assert a decision
	//     (nores = deny because the resource is unknown — the policy half
	//     was dropped by a graph-only round trip)
	type scenario struct {
		name  string
		steps []string
	}
	scenarios := []scenario{
		{
			name: "save-load-drops-policies-by-design",
			steps: []string{
				"user:alice", "user:bob", "rel:alice,bob,friend",
				"share:photo,alice,friend+[1,1]",
				"allow:photo,bob",
				"graph-rt",
				"nores:photo,bob", // graph survived, policies did not
				"share:photo,alice,friend+[1,1]",
				"allow:photo,bob", // and re-sharing works after the trip
			},
		},
		{
			name: "full-round-trip-preserves-decisions",
			steps: []string{
				"user:alice", "user:bob", "user:carol",
				"rel:alice,bob,friend", "rel:bob,carol,friend",
				"share:photo,alice,friend+[1,2]",
				"allow:photo,carol",
				"full-rt",
				"allow:photo,bob", "allow:photo,carol",
				"unrel:bob,carol,friend",
				"deny:photo,carol",
			},
		},
		{
			name: "state-round-trip-interleaved-with-mutations",
			steps: []string{
				"user:alice", "user:bob",
				"rel:alice,bob,colleague",
				"share:doc,alice,colleague+[1,1]",
				"state-rt",
				"allow:doc,bob",
				"user:carol", "rel:alice,carol,colleague",
				"allow:doc,carol",
				"state-rt",
				"allow:doc,carol",
				"unrel:alice,bob,colleague",
				"deny:doc,bob",
			},
		},
		{
			name: "engine-switches-across-round-trips",
			steps: []string{
				"user:alice", "user:bob", "user:carol",
				"rel:alice,bob,friend", "rel:bob,carol,colleague",
				"share:note,alice,friend+[1,1]/colleague+[1,1]",
				"engine:closure",
				"allow:note,carol",
				"state-rt",
				"engine:index",
				"allow:note,carol", "deny:note,bob",
				"full-rt",
				"allow:note,carol",
				"engine:online",
				"allow:note,carol",
			},
		},
		{
			name: "policy-only-round-trip-keeps-live-graph",
			steps: []string{
				"user:alice", "user:bob",
				"rel:alice,bob,family",
				"share:will,alice,family+[1,2]",
				"policy-rt",
				"allow:will,bob",
				"user:carol", "rel:bob,carol,family",
				"allow:will,carol", // new edge + old (reloaded) policy
			},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			n := New()
			users := map[string]UserID{}
			lookup := func(name string) UserID {
				id, ok := users[name]
				if !ok {
					t.Fatalf("step references unknown user %q", name)
				}
				return id
			}
			for i, step := range sc.steps {
				var a, b, c string
				fail := func(err error) {
					t.Fatalf("step %d (%s): %v", i, step, err)
				}
				switch {
				case scan(step, "user:%s", &a):
					id, err := n.AddUser(a)
					if err != nil {
						fail(err)
					}
					users[a] = id
				case scan(step, "rel:%s,%s,%s", &a, &b, &c):
					if err := n.Relate(lookup(a), lookup(b), c); err != nil {
						fail(err)
					}
				case scan(step, "unrel:%s,%s,%s", &a, &b, &c):
					if err := n.Unrelate(lookup(a), lookup(b), c); err != nil {
						fail(err)
					}
				case scan(step, "share:%s,%s,%s", &a, &b, &c):
					if _, err := n.Share(a, lookup(b), c); err != nil {
						fail(err)
					}
				case scan(step, "engine:%s", &a):
					k, err := ParseEngineKind(a)
					if err != nil {
						fail(err)
					}
					if err := n.UseEngine(k); err != nil {
						fail(err)
					}
				case step == "graph-rt":
					var buf bytes.Buffer
					if err := n.Save(&buf); err != nil {
						fail(err)
					}
					n2, err := Load(&buf)
					if err != nil {
						fail(err)
					}
					n = n2
				case step == "policy-rt":
					var buf bytes.Buffer
					if err := n.SavePolicies(&buf); err != nil {
						fail(err)
					}
					if err := n.LoadPolicies(&buf); err != nil {
						fail(err)
					}
				case step == "full-rt":
					var gb, pb bytes.Buffer
					if err := n.Save(&gb); err != nil {
						fail(err)
					}
					if err := n.SavePolicies(&pb); err != nil {
						fail(err)
					}
					n2, err := Load(&gb)
					if err != nil {
						fail(err)
					}
					if err := n2.LoadPolicies(&pb); err != nil {
						fail(err)
					}
					n = n2
				case step == "state-rt":
					var buf bytes.Buffer
					if err := n.SaveState(&buf); err != nil {
						fail(err)
					}
					n2, err := LoadState(&buf)
					if err != nil {
						fail(err)
					}
					n = n2
				case scan(step, "allow:%s,%s", &a, &b):
					d, err := n.CanAccess(a, lookup(b))
					if err != nil {
						fail(err)
					}
					if d.Effect != Allow {
						t.Fatalf("step %d (%s): denied (%s)", i, step, d.Reason)
					}
				case scan(step, "deny:%s,%s", &a, &b):
					d, err := n.CanAccess(a, lookup(b))
					if err != nil {
						fail(err)
					}
					if d.Effect != Deny {
						t.Fatalf("step %d (%s): allowed via %q", i, step, d.RuleID)
					}
				case scan(step, "nores:%s,%s", &a, &b):
					d, err := n.CanAccess(a, lookup(b))
					if err != nil {
						fail(err)
					}
					if d.Effect != Deny || d.Reason != "unknown resource" {
						t.Fatalf("step %d (%s): got (%v, %q)", i, step, d.Effect, d.Reason)
					}
				default:
					t.Fatalf("unparsable step %q", step)
				}
			}
		})
	}
}

// scan matches a step against a pattern, splitting both on ':' and ',' and
// binding %s segments (fmt.Sscanf's %s is whitespace-delimited and would
// swallow the separators). When the input has more segments than the
// pattern and the pattern ends in %s, the surplus is folded back into the
// final binding with commas — path expressions like friend+[1,2] contain
// commas of their own.
func scan(input, pattern string, out ...*string) bool {
	ps := splitAny(pattern)
	is := splitAny(input)
	if len(is) > len(ps) && len(ps) > 0 && ps[len(ps)-1] == "%s" {
		tail := is[len(ps)-1:]
		folded := tail[0]
		for _, t := range tail[1:] {
			folded += "," + t
		}
		is = append(is[:len(ps)-1], folded)
	}
	if len(ps) != len(is) {
		return false
	}
	oi := 0
	for i, p := range ps {
		if p == "%s" {
			if oi >= len(out) {
				return false
			}
			*out[oi] = is[i]
			oi++
			continue
		}
		if p != is[i] {
			return false
		}
	}
	return oi == len(out)
}

func splitAny(s string) []string {
	var parts []string
	cur := ""
	for _, r := range s {
		if r == ':' || r == ',' {
			parts = append(parts, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	return append(parts, cur)
}
