// Command acquery answers access-control reachability queries over a social
// graph: given an owner, a requester and a path expression, it reports
// whether the requester is in the path's audience, optionally printing the
// witness path.
//
// Usage:
//
//	acquery -graph g.json -owner u000001 -requester u000420 \
//	        -path 'friend+[1,2]/colleague+[1]' [-engine online|closure|index] [-explain]
//
//	acquery -graph g.json -owner u000001 -path '...' -audience
//
//	acquery -dir /var/lib/reachac -verify-chain
//
// -audience enumerates every member the path grants access to (the
// resource's effective audience). -verify-chain skips querying entirely and
// audits the directory's tamper-evidence hash chain offline, naming the
// first divergent record on failure (exit 1).
//
// Instead of -graph, -dir opens a durable network directory (as written by
// reachac.Open): the graph is recovered from the latest checkpoint plus the
// write-ahead log tail before the query runs. And instead of either, -addr
// routes the query to a running acserverd over HTTP through the typed
// client — same flags, same output, evaluated by the server's engine.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"reachac"
	"reachac/client"
	"reachac/internal/core"
	"reachac/internal/graph"
	"reachac/internal/joinindex"
	"reachac/internal/pathexpr"
	"reachac/internal/search"
	"reachac/internal/tclosure"
	"reachac/internal/wal"
)

// querier is the shared query surface: the local evaluators and the remote
// acserverd client both implement it, so every flag combination runs the
// same code path after setup.
type querier interface {
	// reach reports whether a path matching expr leads owner -> requester.
	reach(owner, requester, expr string) (bool, error)
	// audience enumerates the member names expr reaches from owner.
	audience(owner, expr string) ([]string, error)
	// numMembers sizes the population, for the audience summary line.
	numMembers() (int, error)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("acquery: ")
	var (
		graphPath = flag.String("graph", "", "graph file (from gengraph or Network.Save)")
		dirPath   = flag.String("dir", "", "durable network directory (from reachac.Open); alternative to -graph")
		addr      = flag.String("addr", "", "acserverd address (host:port or URL); alternative to -graph/-dir")
		owner     = flag.String("owner", "", "resource owner (member name)")
		requester = flag.String("requester", "", "access requester (member name)")
		pathStr   = flag.String("path", "", "path expression, e.g. 'friend+[1,2]/colleague+[1]'")
		engine    = flag.String("engine", "online", "evaluator: online, closure, index (local modes only)")
		audience  = flag.Bool("audience", false, "enumerate the full audience instead of one requester")
		explain   = flag.Bool("explain", false, "print a witness path on grant (local online engine)")
		verify    = flag.Bool("verify-chain", false, "verify -dir's tamper-evidence audit chain and exit")
	)
	flag.Parse()
	if *verify {
		if *dirPath == "" {
			log.Fatal("-verify-chain needs -dir")
		}
		verifyChain(*dirPath)
		return
	}
	sources := 0
	for _, s := range []string{*graphPath, *dirPath, *addr} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 || *owner == "" || *pathStr == "" {
		flag.Usage()
		os.Exit(2)
	}
	canonical, err := reachac.ParsePath(*pathStr)
	if err != nil {
		log.Fatal(err)
	}

	var q querier
	if *addr != "" {
		c, err := client.New(*addr)
		if err != nil {
			log.Fatal(err)
		}
		q = &remoteQuerier{c: c}
	} else {
		lq, closeFn := newLocalQuerier(*graphPath, *dirPath, *engine)
		defer closeFn()
		q = lq
	}

	if *audience {
		names, err := q.audience(*owner, *pathStr)
		if err != nil {
			log.Fatal(err)
		}
		for _, name := range names {
			fmt.Println(name)
		}
		total, err := q.numMembers()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("%d of %d members in the audience of %s/%s",
			len(names), total-1, *owner, canonical)
		return
	}

	if *requester == "" {
		log.Fatal("need -requester or -audience")
	}
	start := time.Now()
	granted, err := q.reach(*owner, *requester, *pathStr)
	if err != nil {
		log.Fatal(err)
	}
	el := time.Since(start)
	if granted {
		fmt.Printf("ALLOW  %s -> %s via %s  (%v)\n", *owner, *requester, canonical, el)
		if *explain {
			if lq, ok := q.(*localQuerier); ok {
				lq.printWitness(os.Stdout, *owner, *requester, *pathStr)
			} else {
				log.Print("-explain needs a local graph (-graph or -dir)")
			}
		}
	} else {
		fmt.Printf("DENY   %s -> %s via %s  (%v)\n", *owner, *requester, canonical, el)
	}
}

// localQuerier evaluates against an in-process graph and engine.
type localQuerier struct {
	g    *graph.Graph
	eval core.Evaluator
}

// newLocalQuerier loads the graph from a file or durable directory and
// builds the selected evaluator; the returned func releases the directory.
func newLocalQuerier(graphPath, dirPath, engine string) (*localQuerier, func()) {
	var (
		g       *graph.Graph
		closeFn = func() {}
	)
	if dirPath != "" {
		n, err := reachac.Open(dirPath)
		if err != nil {
			log.Fatal(err)
		}
		closeFn = func() { n.Close() }
		rec := n.Recovery()
		log.Printf("recovered %d users, %d relationships (%d WAL groups past checkpoint %d, torn tail: %v)",
			n.NumUsers(), n.NumRelationships(), rec.Groups, rec.CheckpointSeq, rec.TornTail)
		g = n.Graph()
	} else {
		f, err := os.Open(graphPath)
		if err != nil {
			log.Fatal(err)
		}
		var rerr error
		g, rerr = graph.Read(f)
		f.Close()
		if rerr != nil {
			log.Fatal(rerr)
		}
	}

	var eval core.Evaluator
	switch engine {
	case "online":
		eval = search.New(g)
	case "closure":
		eval = tclosure.New(g)
	case "index":
		start := time.Now()
		idx, err := joinindex.Build(g, joinindex.Options{})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("index built in %v (%d line nodes, %d SCCs)",
			time.Since(start).Round(time.Millisecond), idx.Stats().LineNodes, idx.Stats().SCCs)
		eval = idx
	default:
		log.Fatalf("unknown engine %q (have online, closure, index)", engine)
	}
	return &localQuerier{g: g, eval: eval}, closeFn
}

func (q *localQuerier) member(name string) graph.NodeID {
	id, ok := q.g.NodeByName(name)
	if !ok {
		log.Fatalf("unknown member %q", name)
	}
	return id
}

func (q *localQuerier) reach(owner, requester, expr string) (bool, error) {
	p, err := pathexpr.Parse(expr)
	if err != nil {
		return false, err
	}
	return q.eval.Reachable(q.member(owner), q.member(requester), p)
}

func (q *localQuerier) audience(owner, expr string) ([]string, error) {
	p, err := pathexpr.Parse(expr)
	if err != nil {
		return nil, err
	}
	ownerID := q.member(owner)
	var names []string
	var ferr error
	q.g.Nodes(func(n graph.Node) bool {
		if n.ID == ownerID {
			return true
		}
		ok, err := q.eval.Reachable(ownerID, n.ID, p)
		if err != nil {
			ferr = err
			return false
		}
		if ok {
			names = append(names, n.Name)
		}
		return true
	})
	return names, ferr
}

func (q *localQuerier) numMembers() (int, error) { return q.g.NumNodes(), nil }

// printWitness prints to w a witness path for a granted online-engine
// query, and nothing for a denied one.
func (q *localQuerier) printWitness(w io.Writer, owner, requester, expr string) {
	p, err := pathexpr.Parse(expr)
	if err != nil {
		return
	}
	ownerID, reqID := q.member(owner), q.member(requester)
	hops, ok, err := search.New(q.g).Witness(ownerID, reqID, p)
	if err != nil || !ok {
		return
	}
	fmt.Fprintf(w, "  %s", q.g.Node(ownerID).Name)
	for _, h := range hops {
		next := h.Edge.To
		if !h.Forward {
			next = h.Edge.From
		}
		dir := ">"
		if !h.Forward {
			dir = "<"
		}
		fmt.Fprintf(w, " -%s%s- %s", q.g.LabelName(h.Edge.Label), dir, q.g.Node(next).Name)
	}
	fmt.Fprintln(w)
}

// remoteQuerier routes queries to a running acserverd.
type remoteQuerier struct {
	c *client.Client
}

func (q *remoteQuerier) reach(owner, requester, expr string) (bool, error) {
	return q.c.Reach(context.Background(), owner, requester, expr)
}

func (q *remoteQuerier) audience(owner, expr string) ([]string, error) {
	return q.c.ReachAudience(context.Background(), owner, expr)
}

func (q *remoteQuerier) numMembers() (int, error) {
	h, err := q.c.Health(context.Background())
	return h.Users, err
}

// verifyChain runs the offline tamper-evidence audit: every record group's
// hash link back to the newest checkpoint anchor. It prints the verified
// extent and exits 0, or names the first divergent record and exits 1.
func verifyChain(dir string) {
	report, err := reachac.VerifyChain(dir)
	if err != nil {
		var ce *wal.ChainError
		if errors.As(err, &ce) {
			log.Printf("audit chain BROKEN: %v", ce)
			log.Fatalf("first divergent record: segment %d, byte offset %d, group %d since anchor", ce.Seq, ce.Offset, ce.Index)
		}
		log.Fatal(err)
	}
	fmt.Printf("audit chain OK: %d record groups across %d segments verified (anchor checkpoint %d)\n",
		report.Groups, report.Segments, report.CheckpointSeq)
	fmt.Printf("chain head: %s\n", report.Chain)
}
