package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/paperfix"
	"reachac/internal/pathexpr"
	"reachac/internal/search"
)

// parseWitness reads the hops printWitness printed for p back from its
// line "  A -l>- B -l<- C ...": each hop's edge is looked up by its ends
// and label, and its step is the first step, from the previous hop's on,
// with the hop's label (so p's adjacent steps must differ in label).
func parseWitness(t *testing.T, g *graph.Graph, p *pathexpr.Path, line string) []search.Hop {
	t.Helper()
	f := strings.Fields(line)
	if len(f)%2 != 1 {
		t.Fatalf("witness line %q: not a member followed by hops", line)
	}
	var hops []search.Hop
	step := 0
	for i := 1; i+1 < len(f); i += 2 {
		arrow := strings.TrimSuffix(strings.TrimPrefix(f[i], "-"), "-")
		label, forward := arrow[:len(arrow)-1], arrow[len(arrow)-1] == '>'
		from, _ := g.NodeByName(f[i-1])
		to, _ := g.NodeByName(f[i+1])
		l, ok := g.LookupLabel(label)
		if !ok {
			t.Fatalf("witness line %q: unknown label %q", line, label)
		}
		id := g.FindEdge(from, to, l)
		if !forward {
			id = g.FindEdge(to, from, l)
		}
		if id == graph.InvalidEdge {
			t.Fatalf("witness line %q: no edge %s %s %s", line, f[i-1], f[i], f[i+1])
		}
		for step < len(p.Steps) && p.Steps[step].Label != label {
			step++
		}
		hops = append(hops, search.Hop{Edge: g.Edge(id), Forward: forward, Step: step})
	}
	return hops
}

// TestExplainPrintsVerifiedWitness loads the paper's Figure 1 graph from a
// file, as acquery -graph does, and checks that -explain's witness for a
// granted query is a path VerifyWitness accepts, and that a denied query
// prints no witness at all.
func TestExplainPrintsVerifiedWitness(t *testing.T) {
	g := paperfix.Graph()
	file := filepath.Join(t.TempDir(), "figure1.json")
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	q, closeFn := newLocalQuerier(file, "", "online")
	defer closeFn()
	for _, tc := range []struct {
		owner, requester, expr string
		granted                bool
	}{
		{paperfix.Alice, paperfix.George, "friend+[1]/parent+[1]/friend+[1]", true},
		{paperfix.Alice, paperfix.Fred, "friend+[1,2]/colleague+[1]", true},
		{paperfix.David, paperfix.Elena, "friend-[1]", true},
		{paperfix.Alice, paperfix.George, "friend+[3]", true},
		{paperfix.Alice, paperfix.Bill, "friend+[1]/parent+[1]/friend+[1]", false},
		{paperfix.George, paperfix.Alice, "friend+[1,2]", false},
	} {
		granted, err := q.reach(tc.owner, tc.requester, tc.expr)
		if err != nil || granted != tc.granted {
			t.Fatalf("%s -> %s via %s: reach (%v, %v), want %v", tc.owner, tc.requester, tc.expr, granted, err, tc.granted)
		}
		var out bytes.Buffer
		q.printWitness(&out, tc.owner, tc.requester, tc.expr)
		if !tc.granted {
			if out.Len() != 0 {
				t.Fatalf("%s -> %s via %s: denied, but printed %q", tc.owner, tc.requester, tc.expr, out.String())
			}
			continue
		}
		p := pathexpr.MustParse(tc.expr)
		hops := parseWitness(t, q.g, p, out.String())
		owner, _ := q.g.NodeByName(tc.owner)
		requester, _ := q.g.NodeByName(tc.requester)
		if err := search.VerifyWitness(q.g, owner, requester, p, hops); err != nil {
			t.Fatalf("%s -> %s via %s: printed witness %q does not verify: %v", tc.owner, tc.requester, tc.expr, out.String(), err)
		}
	}
}
