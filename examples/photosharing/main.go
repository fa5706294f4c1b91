// Photosharing replays the paper's running example (§2, Figures 1–2) through
// the public API: the seven-member social network of Figure 1, Alice's
// privacy preferences expressed as reachability constraints, and the access
// decisions the paper walks through — including query Q1 ("the colleagues of
// my friends within 2 hops") and the §3.4 worked example ("the friends of my
// friends' parents", which grants George via Alice→Colin→Fred→George).
package main

import (
	"fmt"
	"log"

	"reachac"
)

var members = []string{"Alice", "Bill", "Colin", "David", "Elena", "Fred", "George"}

func main() {
	n := reachac.New()
	id := map[string]reachac.UserID{}
	for _, m := range members {
		id[m] = n.MustAddUser(m)
	}
	rel := func(a, b, t string) {
		if err := n.Relate(id[a], id[b], t); err != nil {
			log.Fatal(err)
		}
	}
	// Figure 1.
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

	// Alice's policies.
	share := func(res string, paths ...string) {
		if _, err := n.Share(res, id["Alice"], paths...); err != nil {
			log.Fatal(err)
		}
	}
	// Q1 (Figure 2): colleagues of Alice's friends within 2 hops.
	share("alice/holiday-album", "friend+[1,2]/colleague+[1]")
	// §3.4 worked example: friends of her friends' parents.
	share("alice/party-photos", "friend+[1]/parent+[1]/friend+[1]")
	// §2 intro flavor: 'only my friends and their friends'.
	share("alice/birthday-photos", "friend+[1,2]")

	// David shares his jokes with those who consider him a friend (§2).
	if _, err := n.Share("david/jokes", id["David"], "friend-[1]"); err != nil {
		log.Fatal(err)
	}

	for _, res := range []string{
		"alice/holiday-album", "alice/party-photos", "alice/birthday-photos", "david/jokes",
	} {
		fmt.Printf("%s:\n", res)
		for _, m := range members {
			d, err := n.CanAccess(res, id[m])
			if err != nil {
				log.Fatal(err)
			}
			mark := " "
			if d.Effect == reachac.Allow {
				mark = "✓"
			}
			fmt.Printf("  %s %-7s %s\n", mark, m, d.Reason)
		}
		fmt.Println()
	}
}
