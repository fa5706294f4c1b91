// Command figures regenerates every figure of the paper from the Figure-1
// fixture: the social subgraph (F1), query Q1 (F2), the line graph L(G)
// (F3), the line-query transformation (F4), the reachability table (F5),
// the W-table (F6) and the cluster-based join index with the worked joins
// (F7).
//
// Usage:
//
//	figures [-fig N]    N in 1..7; 0 (default) prints all
//
// Exact postorder numbers in F5 and the center set in F6/F7 depend on
// tie-breaking choices the paper leaves unspecified (SCC representative
// selection, tree-cover traversal order, greedy cover ties); this tool's
// choices are deterministic, and the test suite verifies the semantic
// invariants the figures illustrate.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"reachac/internal/benchutil"
	"reachac/internal/graph"
	"reachac/internal/interval"
	"reachac/internal/joinindex"
	"reachac/internal/linegraph"
	"reachac/internal/paperfix"
	"reachac/internal/pathexpr"
	"reachac/internal/scc"
	"reachac/internal/search"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	fig := flag.Int("fig", 0, "figure to print (1..7); 0 = all")
	flag.Parse()

	g := paperfix.Graph()
	printers := []func(*graph.Graph){
		figure1, figure2, figure3, figure4, figure5, figure6, figure7,
	}
	if *fig != 0 {
		if *fig < 1 || *fig > len(printers) {
			log.Fatalf("no figure %d (have 1..%d)", *fig, len(printers))
		}
		printers[*fig-1](g)
		return
	}
	for i, p := range printers {
		if i > 0 {
			fmt.Println()
		}
		p(g)
	}
}

func figure1(g *graph.Graph) {
	fmt.Println("Figure 1: A Social Network Subgraph")
	fmt.Println()
	g.Nodes(func(n graph.Node) bool {
		attrs := ""
		if len(n.Attrs) > 0 {
			attrs = "  λ = " + n.Attrs.String()
		}
		fmt.Printf("  %s%s\n", n.Name, attrs)
		return true
	})
	fmt.Println()
	g.Edges(func(e graph.Edge) bool {
		w := ""
		if e.Weight != 0 {
			w = fmt.Sprintf("  (trust %.1f)", e.Weight)
		}
		fmt.Printf("  %-9s %s -> %s%s\n",
			g.LabelName(e.Label), g.Node(e.From).Name, g.Node(e.To).Name, w)
		return true
	})
}

func figure2(g *graph.Graph) {
	fmt.Println("Figure 2: A Reachability Query (Q1)")
	fmt.Println()
	q := paperfix.Q1()
	fmt.Printf("  Q1 = Alice/%s\n", q)
	fmt.Println("  (the colleagues of Alice's friends within 2 hops)")
	fmt.Println()
	eng := search.New(g)
	alice, _ := g.NodeByName(paperfix.Alice)
	var granted []string
	for _, name := range paperfix.Names {
		if name == paperfix.Alice {
			continue
		}
		id, _ := g.NodeByName(name)
		ok, err := eng.Reachable(alice, id, q)
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			granted = append(granted, name)
		}
	}
	fmt.Printf("  audience on the Figure-1 graph: {%s}\n", strings.Join(granted, ", "))
}

func figure3(g *graph.Graph) {
	fmt.Println("Figure 3: Line Graph L(G)")
	fmt.Println()
	l := linegraph.Build(g, linegraph.Opts{})
	fmt.Printf("  %d line nodes, %d line edges\n\n", l.NumNodes(), l.NumEdges())
	for i := range l.Nodes {
		var succ []string
		for _, j := range l.D.Succ(i) {
			succ = append(succ, l.NodeString(int(j)))
		}
		sort.Strings(succ)
		fmt.Printf("  %-22s -> {%s}\n", l.NodeString(i), strings.Join(succ, ", "))
	}
}

func figure4(g *graph.Graph) {
	fmt.Println("Figure 4: An access control RQ and its corresponding line RQs")
	fmt.Println()
	q := paperfix.Q1()
	fmt.Printf("  OLCR query:  Alice/%s\n", q)
	lqs, err := linegraph.ExpandQuery(q, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  expands into %d line queries:\n", len(lqs))
	for i := range lqs {
		fmt.Printf("    L%d: %s\n", i+1, lqs[i].String())
	}
}

func figure5(g *graph.Graph) {
	fmt.Println("Figure 5: Reachability Table")
	fmt.Println()
	alice, _ := g.NodeByName(paperfix.Alice)
	l := linegraph.Build(g, linegraph.Opts{VirtualRoots: []graph.NodeID{alice}})
	parts := scc.Tarjan(l.D)
	dag := scc.Condense(l.D, parts)
	g1, err := interval.Label(dag)
	if err != nil {
		log.Fatal(err)
	}
	g2, err := interval.Label(dag.Reverse())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  line graph (with Null-A): %d nodes; condensed DAG: %d vertices\n\n",
		l.NumNodes(), dag.N())
	tbl := benchutil.NewTable("w", "line node", "po↓", "I↓", "po↑", "I↑")
	for i := 0; i < l.NumNodes(); i++ {
		c := parts.Comp[i]
		tbl.AddRow(
			fmt.Sprintf("%d", i),
			l.NodeString(i),
			fmt.Sprintf("%d", g1.Post[c]),
			intervalsString(g1.Sets[c]),
			fmt.Sprintf("%d", g2.Post[c]),
			intervalsString(g2.Sets[c]),
		)
	}
	tbl.Fprint(os.Stdout)
	fmt.Println("\n  (po↓/I↓ label the line DAG G1; po↑/I↑ its reverse G2;")
	fmt.Println("   x reaches y iff po(y) ∈ I↓(x); exact numbers depend on")
	fmt.Println("   tie-breaking the paper leaves unspecified)")
}

func intervalsString(set []interval.Interval) string {
	parts := make([]string, len(set))
	for i, iv := range set {
		parts[i] = iv.String()
	}
	return strings.Join(parts, ";")
}

func figure6(g *graph.Graph) {
	fmt.Println("Figure 6: W-Table")
	fmt.Println()
	idx, err := joinindex.Build(g, joinindex.Options{GreedyCover: true})
	if err != nil {
		log.Fatal(err)
	}
	labels := []string{paperfix.Colleague, paperfix.Friend, paperfix.Parent}
	tbl := benchutil.NewTable("(label a, label b)", "relevant centers")
	for _, a := range labels {
		for _, b := range labels {
			centers := idx.WEntry(a, b)
			if len(centers) == 0 {
				continue
			}
			var names []string
			for _, w := range centers {
				names = append(names, idx.Line().NodeString(int(idx.Clusters()[w].Center)))
			}
			tbl.AddRow(fmt.Sprintf("(%s, %s)", a, b), "{"+strings.Join(names, ", ")+"}")
		}
	}
	tbl.Fprint(os.Stdout)
}

func figure7(g *graph.Graph) {
	fmt.Println("Figure 7: Cluster-Based Join Index")
	fmt.Println()
	idx, err := joinindex.Build(g, joinindex.Options{GreedyCover: true, Strategy: joinindex.EvalPaperJoin})
	if err != nil {
		log.Fatal(err)
	}
	l := idx.Line()
	fmt.Printf("  B+tree over %d centers (height %d):\n\n", idx.Tree().Len(), idx.Tree().Height())
	for _, cl := range idx.Clusters() {
		fmt.Printf("  center %-22s U = {%s}\n", l.NodeString(int(cl.Center)), lineNames(l, cl.U))
		fmt.Printf("         %-22s V = {%s}\n", "", lineNames(l, cl.V))
	}

	// Worked join 1: T_friend ⋈ T_colleague (§3.3).
	fmt.Println("\n  Worked join: T_friend ⋈ T_colleague")
	lqs, err := linegraph.ExpandQuery(pathexpr.MustParse("friend+[1]/colleague+[1]"), 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	ts, err := idx.PaperJoinTuples(&lqs[0])
	if err != nil {
		log.Fatal(err)
	}
	ts.SortTuples()
	for _, tup := range ts.Tuples {
		fmt.Printf("    ⟨%s, %s⟩\n", l.NodeString(int(tup[0])), l.NodeString(int(tup[1])))
	}

	// Worked join 2: (T_friend ⋈ T_parent) ⋈ T_friend with §3.4
	// post-processing for owner Alice, requester George.
	fmt.Println("\n  Worked query: /friend/parent/friend, owner Alice, requester George")
	lqs, err = linegraph.ExpandQuery(paperfix.QFriendParentFriend(), 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	ts, err = idx.PaperJoinTuples(&lqs[0])
	if err != nil {
		log.Fatal(err)
	}
	ts.SortTuples()
	fmt.Printf("    joined tuples (%d):\n", ts.Len())
	for _, tup := range ts.Tuples {
		fmt.Printf("      ⟨%s⟩\n", tupleNames(l, tup))
	}
	alice, _ := g.NodeByName(paperfix.Alice)
	george, _ := g.NodeByName(paperfix.George)
	kept := idx.PostProcess(alice, george, &lqs[0], ts)
	fmt.Printf("    after §3.4 post-processing (%d):\n", len(kept))
	for _, tup := range kept {
		fmt.Printf("      ⟨%s⟩   => grant (Alice -> Colin -> Fred -> George)\n", tupleNames(l, tup))
	}
}

func lineNames(l *linegraph.L, ids []int32) string {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = l.NodeString(int(id))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func tupleNames(l *linegraph.L, tup []int32) string {
	names := make([]string, len(tup))
	for i, id := range tup {
		names[i] = l.NodeString(int(id))
	}
	return strings.Join(names, ", ")
}
