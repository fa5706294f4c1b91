package reachac_test

import (
	"fmt"

	"reachac"
)

// Example demonstrates the basic flow: build a network, protect a resource
// with a reachability constraint, and check access.
func Example() {
	n := reachac.New()
	alice := n.MustAddUser("alice")
	bob := n.MustAddUser("bob")
	carol := n.MustAddUser("carol")
	n.Relate(alice, bob, "friend")
	n.Relate(bob, carol, "friend")

	n.Share("alice/photos", alice, "friend+[1,2]")

	for _, u := range []reachac.UserID{bob, carol} {
		d, _ := n.CanAccess("alice/photos", u)
		fmt.Println(n.UserName(u), d.Effect)
	}
	// Output:
	// bob allow
	// carol allow
}

// ExampleNetwork_Share shows conjunctive conditions and alternative rules.
func ExampleNetwork_Share() {
	n := reachac.New()
	owner := n.MustAddUser("owner")
	friend := n.MustAddUser("friend")
	colleague := n.MustAddUser("colleague")
	n.Relate(owner, friend, "friend")
	n.Relate(owner, colleague, "colleague")

	// One rule whose two conditions must BOTH hold: nobody here satisfies
	// both a friend and a colleague relationship.
	n.Share("post", owner, "friend+[1]", "colleague+[1]")
	d, _ := n.CanAccess("post", friend)
	fmt.Println("conjunctive:", d.Effect)

	// A second Share adds an alternative audience.
	n.Share("post", owner, "friend+[1]")
	d, _ = n.CanAccess("post", friend)
	fmt.Println("alternative:", d.Effect)
	// Output:
	// conjunctive: deny
	// alternative: allow
}

// ExampleNetwork_CheckPath evaluates a raw reachability constraint.
func ExampleNetwork_CheckPath() {
	n := reachac.New()
	a := n.MustAddUser("a")
	b := n.MustAddUser("b")
	c := n.MustAddUser("c")
	n.Relate(a, b, "friend")
	n.Relate(b, c, "colleague")

	ok, _ := n.CheckPath(a, c, "friend+[1]/colleague+[1]")
	fmt.Println(ok)
	// Output:
	// true
}

// ExampleNetwork_Audience materializes the full audience of a resource.
func ExampleNetwork_Audience() {
	n := reachac.New()
	owner := n.MustAddUser("owner")
	adult := n.MustAddUser("adult", reachac.IntAttr("age", 30))
	minor := n.MustAddUser("minor", reachac.IntAttr("age", 12))
	n.Relate(owner, adult, "friend")
	n.Relate(owner, minor, "friend")

	n.Share("party", owner, "friend+[1]{age>=18}")
	audience, _ := n.Audience("party")
	for _, id := range audience {
		fmt.Println(n.UserName(id))
	}
	// Output:
	// adult
}

// ExampleParsePath canonicalizes a path expression.
func ExampleParsePath() {
	s, _ := reachac.ParsePath("friend + [ 1 , 2 ] / colleague+[1]")
	fmt.Println(s)
	// Output:
	// friend+[1,2]/colleague+[1]
}
