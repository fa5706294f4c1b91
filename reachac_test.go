package reachac

import (
	"bytes"
	"strings"
	"testing"

	"reachac/internal/core"
	"reachac/internal/search"
)

// buildPaperNetwork recreates the Figure-1 graph through the public API.
func buildPaperNetwork(t *testing.T) (*Network, map[string]UserID) {
	t.Helper()
	n := New()
	ids := map[string]UserID{}
	for _, name := range []string{"Alice", "Bill", "Colin", "David", "Elena", "Fred", "George"} {
		ids[name] = n.MustAddUser(name)
	}
	rel := func(a, b, l string) {
		t.Helper()
		if err := n.Relate(ids[a], ids[b], l); err != nil {
			t.Fatal(err)
		}
	}
	rel("Alice", "Colin", "friend")
	rel("Alice", "David", "colleague")
	rel("Alice", "Bill", "friend")
	rel("Colin", "David", "friend")
	rel("Elena", "Bill", "friend")
	rel("Bill", "Elena", "friend")
	rel("Colin", "Fred", "parent")
	rel("David", "Fred", "colleague")
	rel("David", "George", "parent")
	rel("Elena", "David", "friend")
	rel("Elena", "George", "friend")
	rel("Fred", "George", "friend")
	return n, ids
}

func TestQuickstartFlow(t *testing.T) {
	n := New()
	alice := n.MustAddUser("alice", IntAttr("age", 24))
	bob := n.MustAddUser("bob")
	if err := n.Relate(alice, bob, "friend"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Share("alice/photos", alice, "friend+[1,2]"); err != nil {
		t.Fatal(err)
	}
	d, err := n.CanAccess("alice/photos", bob)
	if err != nil {
		t.Fatal(err)
	}
	if d.Effect != Allow {
		t.Fatalf("bob denied: %+v", d)
	}
	carol := n.MustAddUser("carol")
	d, err = n.CanAccess("alice/photos", carol)
	if err != nil {
		t.Fatal(err)
	}
	if d.Effect != Deny {
		t.Fatalf("carol allowed: %+v", d)
	}
}

func TestAllEnginesAgreeOnPolicies(t *testing.T) {
	queries := []string{
		"friend+[1,2]/colleague+[1]",
		"friend+[1]/parent+[1]/friend+[1]",
		"friend-[1]",
		"friend*[1,3]",
		"friend+[1,*]",
	}
	kinds := EngineKinds()
	names := []string{"Alice", "Bill", "Colin", "David", "Elena", "Fred", "George"}

	// Reference decision matrix from the Online engine.
	ref := map[string]bool{}
	n, ids := buildPaperNetwork(t)
	for _, q := range queries {
		for _, o := range names {
			for _, r := range names {
				ok, err := n.CheckPath(ids[o], ids[r], q)
				if err != nil {
					t.Fatal(err)
				}
				ref[q+o+r] = ok
			}
		}
	}
	for _, kind := range kinds[1:] {
		if err := n.UseEngine(kind); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for _, q := range queries {
			for _, o := range names {
				for _, r := range names {
					ok, err := n.CheckPath(ids[o], ids[r], q)
					if err != nil {
						t.Fatalf("%v (%s,%s,%s): %v", kind, o, r, q, err)
					}
					if ok != ref[q+o+r] {
						t.Fatalf("%v disagrees on (%s,%s,%s): %v vs %v", kind, o, r, q, ok, ref[q+o+r])
					}
				}
			}
		}
	}
}

func TestIndexRebuildsAfterMutation(t *testing.T) {
	n, ids := buildPaperNetwork(t)
	if err := n.UseEngine(Index); err != nil {
		t.Fatal(err)
	}
	// Initially: Alice -friend-> Bill only, not Bill -friend-> Colin.
	ok, err := n.CheckPath(ids["Alice"], ids["George"], "colleague+[1]/colleague+[1]")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("phantom colleague chain")
	}
	// Add David -colleague-> George... via a new member chain.
	if err := n.Relate(ids["David"], ids["George"], "colleague"); err != nil {
		t.Fatal(err)
	}
	ok, err = n.CheckPath(ids["Alice"], ids["George"], "colleague+[1]/colleague+[1]")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("index not rebuilt after mutation")
	}
	// Remove it again.
	if err := n.Unrelate(ids["David"], ids["George"], "colleague"); err != nil {
		t.Fatal(err)
	}
	ok, _ = n.CheckPath(ids["Alice"], ids["George"], "colleague+[1]/colleague+[1]")
	if ok {
		t.Fatal("index not rebuilt after removal")
	}
}

func TestShareSemantics(t *testing.T) {
	n, ids := buildPaperNetwork(t)
	alice := ids["Alice"]
	// Conjunctive conditions within one Share call.
	if _, err := n.Share("alice/diary", alice, "friend+[1,3]", "friend+[1]/parent+[1]/friend+[1]"); err != nil {
		t.Fatal(err)
	}
	d, _ := n.CanAccess("alice/diary", ids["George"])
	if d.Effect != Allow {
		t.Fatalf("George (satisfies both) denied: %+v", d)
	}
	d, _ = n.CanAccess("alice/diary", ids["Colin"])
	if d.Effect != Deny {
		t.Fatalf("Colin (friend only) allowed: %+v", d)
	}
	// A second Share on the same resource is an alternative audience.
	rid, err := n.Share("alice/diary", alice, "friend+[1]")
	if err != nil {
		t.Fatal(err)
	}
	d, _ = n.CanAccess("alice/diary", ids["Colin"])
	if d.Effect != Allow {
		t.Fatalf("Colin denied after widening: %+v", d)
	}
	// Revoking the widening rule restores the deny.
	if !n.Revoke("alice/diary", rid) {
		t.Fatal("Revoke failed")
	}
	d, _ = n.CanAccess("alice/diary", ids["Colin"])
	if d.Effect != Deny {
		t.Fatalf("Colin still allowed after revoke: %+v", d)
	}
}

func TestShareErrors(t *testing.T) {
	n, ids := buildPaperNetwork(t)
	if _, err := n.Share("r", ids["Alice"]); err == nil {
		t.Fatal("Share with no paths accepted")
	}
	if _, err := n.Share("r", ids["Alice"], "not a path ///"); err == nil {
		t.Fatal("Share with bad path accepted")
	}
	if _, err := n.Share("r", ids["Alice"], "friend+[1]"); err != nil {
		t.Fatal(err)
	}
	// Someone else cannot attach rules to Alice's resource.
	if _, err := n.Share("r", ids["Bill"], "friend+[1]"); err == nil {
		t.Fatal("non-owner Share accepted")
	}
}

func TestAttrPredicatesThroughFacade(t *testing.T) {
	n := New()
	alice := n.MustAddUser("alice")
	minor := n.MustAddUser("kid", IntAttr("age", 12))
	adult := n.MustAddUser("adult", IntAttr("age", 30), StringAttr("city", "paris"))
	n.Relate(alice, minor, "friend")
	n.Relate(alice, adult, "friend")
	if _, err := n.Share("post", alice, `friend+[1]{age>=18, city="paris"}`); err != nil {
		t.Fatal(err)
	}
	d, _ := n.CanAccess("post", adult)
	if d.Effect != Allow {
		t.Fatalf("adult denied: %+v", d)
	}
	d, _ = n.CanAccess("post", minor)
	if d.Effect != Deny {
		t.Fatalf("minor allowed: %+v", d)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	n, ids := buildPaperNetwork(t)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	n2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n2.NumUsers() != n.NumUsers() || n2.NumRelationships() != n.NumRelationships() {
		t.Fatal("round trip lost data")
	}
	// Reachability is preserved.
	a2, _ := n2.UserID("Alice")
	g2, _ := n2.UserID("George")
	ok, err := n2.CheckPath(a2, g2, "friend+[3]")
	if err != nil || !ok {
		t.Fatalf("loaded network reachability: %v %v", ok, err)
	}
	_ = ids
}

func TestUserLookupAndCounts(t *testing.T) {
	n, ids := buildPaperNetwork(t)
	if n.NumUsers() != 7 || n.NumRelationships() != 12 {
		t.Fatalf("counts = %d users %d rels", n.NumUsers(), n.NumRelationships())
	}
	id, ok := n.UserID("Alice")
	if !ok || id != ids["Alice"] {
		t.Fatal("UserID lookup")
	}
	if n.UserName(id) != "Alice" {
		t.Fatal("UserName lookup")
	}
	if _, ok := n.UserID("nobody"); ok {
		t.Fatal("ghost user")
	}
}

func TestRelateMutual(t *testing.T) {
	n := New()
	a := n.MustAddUser("a")
	b := n.MustAddUser("b")
	if err := n.RelateMutual(a, b, "friend"); err != nil {
		t.Fatal(err)
	}
	ok, _ := n.CheckPath(a, b, "friend+[1]")
	ok2, _ := n.CheckPath(b, a, "friend+[1]")
	if !ok || !ok2 {
		t.Fatal("mutual relation incomplete")
	}
}

func TestUnrelateErrors(t *testing.T) {
	n := New()
	a := n.MustAddUser("a")
	b := n.MustAddUser("b")
	if err := n.Unrelate(a, b, "friend"); err == nil {
		t.Fatal("Unrelate unknown label accepted")
	}
	n.Relate(a, b, "friend")
	if err := n.Unrelate(b, a, "friend"); err == nil {
		t.Fatal("Unrelate missing edge accepted")
	}
	if err := n.Unrelate(a, b, "friend"); err != nil {
		t.Fatal(err)
	}
}

func TestAuditThroughFacade(t *testing.T) {
	n, ids := buildPaperNetwork(t)
	if _, err := n.Share("r", ids["Alice"], "friend+[1]"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.CanAccess("r", ids["Bill"]); err != nil {
		t.Fatal(err)
	}
	if _, err := n.CanAccess("r", ids["Fred"]); err != nil {
		t.Fatal(err)
	}
	audit := n.Audit()
	if len(audit) != 2 {
		t.Fatalf("audit = %d entries", len(audit))
	}
	if audit[0].Effect != Allow || audit[1].Effect != Deny {
		t.Fatalf("audit = %+v", audit)
	}
}

// TestEveryDecisionIsAuditedAndFresh: a repeated CanAccess appears in the
// audit trail once per call, and after an edge addition makes an earlier
// rule match, the repeat names the rule a fresh evaluation matches.
func TestEveryDecisionIsAuditedAndFresh(t *testing.T) {
	n := New()
	alice, bob, carol := n.MustAddUser("alice"), n.MustAddUser("bob"), n.MustAddUser("carol")
	if err := n.Relate(alice, bob, "friend"); err != nil {
		t.Fatal(err)
	}
	first, err := n.Share("doc", alice, "colleague+[1]")
	if err != nil {
		t.Fatal(err)
	}
	second, err := n.Share("doc", alice, "friend+[1]")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	check := func(wantRule string) {
		t.Helper()
		calls++
		d, err := n.CanAccess("doc", bob)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := core.NewEngine(n.Store(), search.New(n.Graph()), -1).Decide("doc", bob)
		if err != nil {
			t.Fatal(err)
		}
		if d != fresh || d.RuleID != wantRule {
			t.Fatalf("call %d: decision %+v, fresh evaluation %+v, want rule %s", calls, d, fresh, wantRule)
		}
		if audit := n.Audit(); len(audit) != calls || audit[calls-1] != d {
			t.Fatalf("call %d: audit holds %d entries, last %+v", calls, len(audit), audit[len(audit)-1])
		}
	}
	// Repeats on one snapshot, then across publications that recycle every
	// pooled snapshot (an unrelated edge toggles between the checks).
	check(second)
	check(second)
	for i := 0; i < 2*sparePoolCap; i++ {
		if i%2 == 0 {
			err = n.Relate(bob, carol, "neighbour")
		} else {
			err = n.Unrelate(bob, carol, "neighbour")
		}
		if err != nil {
			t.Fatal(err)
		}
		check(second)
	}
	if err := n.Relate(alice, bob, "colleague"); err != nil {
		t.Fatal(err)
	}
	check(first)
	check(first)
}

func TestParsePathCanonicalizes(t *testing.T) {
	s, err := ParsePath("friend + [ 1 , 2 ] / colleague+[1]")
	if err != nil {
		t.Fatal(err)
	}
	if s != "friend+[1,2]/colleague+[1]" {
		t.Fatalf("canonical = %q", s)
	}
	if _, err := ParsePath("///"); err == nil {
		t.Fatal("bad path accepted")
	}
}

func TestEngineKindString(t *testing.T) {
	kinds := map[EngineKind]string{
		Online: "online-bfs", Closure: "closure", Index: "join-index",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d String = %q", int(k), k.String())
		}
	}
	if err := New().UseEngine(EngineKind(99)); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestParseEngineKind(t *testing.T) {
	for _, c := range []struct {
		name string
		want EngineKind
		ok   bool
	}{
		{"online-bfs", Online, true},
		{"closure", Closure, true},
		{"join-index", Index, true},
		{"online", Online, true},
		{"index", Index, true},
		{"join-index-paper", 0, false},
		{"index-paper", 0, false},
		{"online-dfs", 0, false},
		{"online-adaptive", 0, false},
		{"", 0, false},
		{"Closure", 0, false},
	} {
		got, err := ParseEngineKind(c.name)
		if c.ok {
			if err != nil || got != c.want {
				t.Errorf("ParseEngineKind(%q) = (%v, %v), want %v", c.name, got, err, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParseEngineKind(%q) = %v, want an error", c.name, got)
			continue
		}
		for _, k := range EngineKinds() {
			if !strings.Contains(err.Error(), k.String()) {
				t.Errorf("ParseEngineKind(%q) error %q does not list %v", c.name, err, k)
			}
		}
	}
	for _, k := range EngineKinds() {
		if got, err := ParseEngineKind(k.String()); err != nil || got != k {
			t.Errorf("ParseEngineKind(%v.String()) = (%v, %v)", k, got, err)
		}
	}
}

func TestDuplicateUserRejected(t *testing.T) {
	n := New()
	n.MustAddUser("a")
	if _, err := n.AddUser("a"); err == nil {
		t.Fatal("duplicate user accepted")
	}
}

func TestPolicyPersistenceThroughFacade(t *testing.T) {
	n, ids := buildPaperNetwork(t)
	if _, err := n.Share("alice/album", ids["Alice"], "friend+[1]/parent+[1]/friend+[1]"); err != nil {
		t.Fatal(err)
	}
	var gbuf, pbuf bytes.Buffer
	if err := n.Save(&gbuf); err != nil {
		t.Fatal(err)
	}
	if err := n.SavePolicies(&pbuf); err != nil {
		t.Fatal(err)
	}
	n2, err := Load(&gbuf)
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.LoadPolicies(&pbuf); err != nil {
		t.Fatal(err)
	}
	george, _ := n2.UserID("George")
	d, err := n2.CanAccess("alice/album", george)
	if err != nil {
		t.Fatal(err)
	}
	if d.Effect != Allow {
		t.Fatalf("George denied after reload: %+v", d)
	}
	bill, _ := n2.UserID("Bill")
	d, _ = n2.CanAccess("alice/album", bill)
	if d.Effect != Deny {
		t.Fatalf("Bill allowed after reload: %+v", d)
	}
}

func TestAudienceThroughFacade(t *testing.T) {
	n, ids := buildPaperNetwork(t)
	if _, err := n.Share("alice/q1", ids["Alice"], "friend+[1,2]/colleague+[1]"); err != nil {
		t.Fatal(err)
	}
	audience, err := n.Audience("alice/q1")
	if err != nil {
		t.Fatal(err)
	}
	if len(audience) != 1 || n.UserName(audience[0]) != "Fred" {
		t.Fatalf("audience = %v", audience)
	}
	if _, err := n.Audience("ghost"); err == nil {
		t.Fatal("unknown resource accepted")
	}
}

func TestAttrConstructorsAndAccessors(t *testing.T) {
	n := New()
	u := n.MustAddUser("u",
		NumberAttr("score", 0.75),
		BoolAttr("vip", true),
		StringAttr("city", "oslo"),
		IntAttr("age", 40),
	)
	g := n.Graph()
	if v, ok := g.Attr(u, "score"); !ok || v.Num() != 0.75 {
		t.Fatalf("score = %v,%v", v, ok)
	}
	if v, ok := g.Attr(u, "vip"); !ok || !v.B() {
		t.Fatalf("vip = %v,%v", v, ok)
	}
	if n.Store() == nil {
		t.Fatal("Store accessor nil")
	}
	if n.EngineKind() != Online {
		t.Fatalf("default engine = %v", n.EngineKind())
	}
	if err := n.UseEngine(Closure); err != nil {
		t.Fatal(err)
	}
	if n.EngineKind() != Closure {
		t.Fatalf("engine after UseEngine = %v", n.EngineKind())
	}
}

func TestFromGraph(t *testing.T) {
	n1, _ := buildPaperNetwork(t)
	n2 := FromGraph(n1.Graph())
	if n2.NumUsers() != 7 {
		t.Fatalf("FromGraph users = %d", n2.NumUsers())
	}
	a, _ := n2.UserID("Alice")
	g, _ := n2.UserID("George")
	ok, err := n2.CheckPath(a, g, "friend+[3]")
	if err != nil || !ok {
		t.Fatalf("FromGraph reachability: %v %v", ok, err)
	}
}

func TestRelateMutualErrorPath(t *testing.T) {
	n := New()
	a := n.MustAddUser("a")
	b := n.MustAddUser("b")
	if err := n.Relate(a, b, "friend"); err != nil {
		t.Fatal(err)
	}
	// First direction duplicates: error surfaces from RelateMutual.
	if err := n.RelateMutual(a, b, "friend"); err == nil {
		t.Fatal("duplicate forward relation accepted")
	}
	// Reverse-only duplicate: the second Relate inside RelateMutual fails.
	c := n.MustAddUser("c")
	if err := n.Relate(c, a, "friend"); err != nil {
		t.Fatal(err)
	}
	if err := n.RelateMutual(a, c, "friend"); err == nil {
		t.Fatal("duplicate reverse relation accepted")
	}
}

func TestUnknownEngineString(t *testing.T) {
	if EngineKind(42).String() != "EngineKind(42)" {
		t.Fatal("unknown EngineKind String")
	}
}

func TestDirectGraphMutationTriggersRebuild(t *testing.T) {
	n, ids := buildPaperNetwork(t)
	if err := n.UseEngine(Index); err != nil {
		t.Fatal(err)
	}
	ok, err := n.CheckPath(ids["Alice"], ids["George"], "colleague+[2]")
	if err != nil || ok {
		t.Fatalf("before: %v %v", ok, err)
	}
	// Mutate through the exposed graph handle, bypassing Relate.
	david, _ := n.UserID("David")
	george, _ := n.UserID("George")
	n.Graph().MustAddEdge(david, george, "colleague")
	ok, err = n.CheckPath(ids["Alice"], george, "colleague+[2]")
	if err != nil {
		t.Fatalf("stale error leaked to caller: %v", err)
	}
	if !ok {
		t.Fatal("rebuild after direct graph mutation missed the new edge")
	}
	_ = david
}
