// Quickstart: the smallest complete use of the reachac public API — build a
// tiny social network, protect a resource with a reachability constraint,
// and check who gets in.
package main

import (
	"fmt"
	"log"

	"reachac"
)

func main() {
	n := reachac.New()

	alice := n.MustAddUser("alice", reachac.IntAttr("age", 24))
	bob := n.MustAddUser("bob")
	carol := n.MustAddUser("carol")
	dave := n.MustAddUser("dave")

	// alice -friend-> bob -friend-> carol;  dave is unrelated.
	must(n.Relate(alice, bob, "friend"))
	must(n.Relate(bob, carol, "friend"))

	// Share alice's photos with friends and friends-of-friends.
	if _, err := n.Share("alice/photos", alice, "friend+[1,2]"); err != nil {
		log.Fatal(err)
	}

	for _, u := range []reachac.UserID{alice, bob, carol, dave} {
		d, err := n.CanAccess("alice/photos", u)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s -> %-5s (%s)\n", n.UserName(u), d.Effect, d.Reason)
	}

	// Raw reachability checks work too.
	ok, err := n.CheckPath(alice, carol, "friend+[2]")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nalice reaches carol via friend+[2]: %v\n", ok)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
