package reachac

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestSentinelErrors pins the errors.Is classification of every facade
// failure mode the serving layer maps to HTTP statuses.
func TestSentinelErrors(t *testing.T) {
	n := New()
	a := n.MustAddUser("a")
	b := n.MustAddUser("b")
	if err := n.Relate(a, b, "friend"); err != nil {
		t.Fatal(err)
	}

	if _, err := n.AddUser("a"); !errors.Is(err, ErrDuplicateUser) {
		t.Errorf("duplicate AddUser: %v", err)
	}
	if err := n.Relate(a, 999, "friend"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("Relate to unknown user: %v", err)
	}
	if err := n.Relate(a, b, "friend"); !errors.Is(err, ErrDuplicateRelationship) {
		t.Errorf("duplicate Relate: %v", err)
	}
	if err := n.Relate(a, a, "friend"); !errors.Is(err, ErrSelfRelationship) {
		t.Errorf("self Relate: %v", err)
	}
	if err := n.Unrelate(a, b, "enemy"); !errors.Is(err, ErrUnknownRelationship) {
		t.Errorf("Unrelate of unknown type: %v", err)
	}
	if err := n.Unrelate(b, a, "friend"); !errors.Is(err, ErrUnknownRelationship) {
		t.Errorf("Unrelate of missing edge: %v", err)
	}
	if _, err := n.Share("r", 999, "friend+[1]"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("Share by unknown owner: %v", err)
	}
	if _, err := n.Share("r", a, "friend+[1]"); err != nil {
		t.Fatalf("Share: %v", err)
	}
	if _, err := n.Share("r", b, "friend+[1]"); !errors.Is(err, ErrResourceOwned) {
		t.Errorf("Share of another user's resource: %v", err)
	}
	if _, err := n.Audience("nothing"); !errors.Is(err, ErrUnknownResource) {
		t.Errorf("Audience of unknown resource: %v", err)
	}
	if _, err := n.PathAudience(999, "friend+[1]"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("PathAudience of unknown owner: %v", err)
	}
	if err := n.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Errorf("Checkpoint on non-durable network: %v", err)
	}
}

// TestSentinelErrClosed pins the closed-network classification on a durable
// network.
func TestSentinelErrClosed(t *testing.T) {
	n, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddUser("a"); !errors.Is(err, ErrClosed) {
		t.Errorf("AddUser after Close: %v", err)
	}
	if err := n.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint after Close: %v", err)
	}
}

// TestStatsCounters exercises the Stats surface end to end.
func TestStatsCounters(t *testing.T) {
	n, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	a := n.MustAddUser("a")
	b := n.MustAddUser("b")
	if err := n.Relate(a, b, "friend"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Share("r", a, "friend+[1]"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.CanAccess("r", b); err != nil {
		t.Fatal(err)
	}
	if _, err := n.CanAccessAll("r", []UserID{a, b}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Audience("r"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.PathAudience(a, "friend+[1]"); err != nil {
		t.Fatal(err)
	}

	st := n.Stats()
	if st.Users != 2 || st.Relationships != 1 || st.Resources != 1 {
		t.Fatalf("sizes: %+v", st)
	}
	if !st.Durable {
		t.Fatalf("identity: %+v", st)
	}
	if st.Checks != 3 || st.BatchChecks != 1 || st.Audiences != 2 {
		t.Fatalf("read counters: %+v", st)
	}
	// 4 ops (2 users, 1 edge, 1 share) across 4 Batch calls.
	if st.Mutations != 4 || st.Batches != 4 {
		t.Fatalf("write counters: %+v", st)
	}
	if st.WALAppends != 4 || st.WALFsyncs == 0 || st.WALSegmentBytes == 0 {
		t.Fatalf("WAL counters: %+v", st)
	}
	if st.Republications == 0 || st.AuditRetained == 0 {
		t.Fatalf("derived counters: %+v", st)
	}
}

// TestViewConsistency pins that a view resolves names and decides against
// one frozen snapshot even while the live network moves on.
func TestViewConsistency(t *testing.T) {
	n := New()
	a := n.MustAddUser("a")
	b := n.MustAddUser("b")
	if err := n.Relate(a, b, "friend"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Share("r", a, "friend+[1]"); err != nil {
		t.Fatal(err)
	}
	v, err := n.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	// Mutate the live network after the view pinned its snapshot.
	c := n.MustAddUser("c")
	if err := n.Relate(a, c, "friend"); err != nil {
		t.Fatal(err)
	}

	if _, ok := v.UserID("c"); ok {
		t.Fatal("view observed a user added after it was pinned")
	}
	if v.NumUsers() != 2 || v.NumRelationships() != 1 {
		t.Fatalf("view sizes moved: %d users, %d relationships", v.NumUsers(), v.NumRelationships())
	}
	id, ok := v.UserID("b")
	if !ok || id != b {
		t.Fatalf("UserID(b) = %d, %v", id, ok)
	}
	if name, ok := v.UserName(b); !ok || name != "b" {
		t.Fatalf("UserName(b) = %q, %v", name, ok)
	}
	if _, ok := v.UserName(999); ok {
		t.Fatal("UserName(999) resolved")
	}
	d, err := v.CanAccess("r", b)
	if err != nil || d.Effect != Allow {
		t.Fatalf("view CanAccess = %+v, %v", d, err)
	}
	ds, err := v.CanAccessAll("r", []UserID{a, b})
	if err != nil || len(ds) != 2 || ds[1].Effect != Allow {
		t.Fatalf("view CanAccessAll = %v, %v", ds, err)
	}
	if ok, err := v.CheckPath(a, b, "friend+[1]"); err != nil || !ok {
		t.Fatalf("view CheckPath = %v, %v", ok, err)
	}
	aud, err := v.Audience("r")
	if err != nil || len(aud) != 1 || aud[0] != b {
		t.Fatalf("view Audience = %v, %v", aud, err)
	}
	pa, err := v.PathAudience(a, "friend+[1]")
	if err != nil || len(pa) != 1 || pa[0] != b {
		t.Fatalf("view PathAudience = %v, %v", pa, err)
	}

	// The live network meanwhile sees the new state.
	if got, err := n.PathAudience(a, "friend+[1]"); err != nil || len(got) != 2 {
		t.Fatalf("live PathAudience = %v, %v", got, err)
	}
}

// TestCanAccessPastSearchBoundDenies pins where the search's plan limits
// surface: a condition whose product states on the network exceed the
// search's bound (friend+[1,32000] over 70 000 members: 2.24·10⁹ states,
// past 2³¹) is not searched at all. CanAccess returns the search's error,
// wrapped with the rule that failed, and a Deny decision, as for every
// evaluation error.
func TestCanAccessPastSearchBoundDenies(t *testing.T) {
	n := New()
	var owner, requester UserID
	if err := n.Batch(func(tx *Tx) error {
		for i := range 70_000 {
			id, err := tx.AddUser(fmt.Sprintf("u%d", i))
			if err != nil {
				return err
			}
			owner, requester = requester, id
		}
		return tx.Relate(owner, requester, "friend")
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Share("photo", owner, "friend+[1,32000]"); err != nil {
		t.Fatal(err)
	}
	d, err := n.CanAccess("photo", requester)
	if err == nil || !strings.Contains(err.Error(), "search bound") {
		t.Fatalf("CanAccess past the search bound: error %v, want the search's", err)
	}
	if d.Effect != Deny {
		t.Fatalf("CanAccess past the search bound: %v, want a deny", d.Effect)
	}
	if _, err := n.Share("nearby", owner, "friend+[1,2]"); err != nil {
		t.Fatal(err)
	}
	if d, err := n.CanAccess("nearby", requester); err != nil || d.Effect != Allow {
		t.Fatalf("a condition within the bound: (%v, %v), want an allow", d.Effect, err)
	}
}
