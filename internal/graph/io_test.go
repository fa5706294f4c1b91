package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g, a, b, _ := buildTriangle(t)
	vip := g.MustAddNode("vip", Attrs{"vip": Bool(true)})
	g.MustAddEdge(vip, a, "friend")
	if _, err := g.AddWeightedEdge(b, a, "parent", 0.8); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	assertGraphsEqual(t, g, got)
}

func assertGraphsEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("size mismatch: got (%d,%d) want (%d,%d)",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	want.Nodes(func(n Node) bool {
		id, ok := got.NodeByName(n.Name)
		if !ok {
			t.Fatalf("node %q lost", n.Name)
		}
		gn := got.Node(id)
		if len(gn.Attrs) != len(n.Attrs) {
			t.Fatalf("node %q attrs: got %v want %v", n.Name, gn.Attrs, n.Attrs)
		}
		for k, v := range n.Attrs {
			gv, ok := gn.Attrs.Get(k)
			if !ok || !gv.Equal(v) {
				t.Fatalf("node %q attr %q: got %v want %v", n.Name, k, gv, v)
			}
		}
		return true
	})
	want.Edges(func(e Edge) bool {
		fromName := want.Node(e.From).Name
		toName := want.Node(e.To).Name
		gf, _ := got.NodeByName(fromName)
		gt, _ := got.NodeByName(toName)
		if !got.HasEdge(gf, gt, want.LabelName(e.Label)) {
			t.Fatalf("edge %s lost", want.EdgeString(e))
		}
		return true
	})
}

func TestRoundTripDropsTombstones(t *testing.T) {
	g, a, b, _ := buildTriangle(t)
	if err := g.RemoveEdge(g.FindEdge(a, b, mustLabel(t, g, "friend"))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != 2 {
		t.Fatalf("round trip kept tombstone: %d edges", got.NumEdges())
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not json",
		`{"magic":"wrong","nodes":0,"edges":0}` + "\n",
		`{"magic":"reachac-graph-v1","nodes":1,"edges":0}` + "\n",                                                   // truncated: node missing
		`{"magic":"reachac-graph-v1","nodes":0,"edges":1}` + "\n",                                                   // truncated: edge missing
		`{"magic":"reachac-graph-v1","nodes":0,"edges":1}` + "\n" + `{"f":5,"t":6,"l":"x"}` + "\n",                  // bad endpoints
		`{"magic":"reachac-graph-v1","nodes":1,"edges":0}` + "\n" + `{"name":"a","attrs":{"x":{"k":"zzz"}}}` + "\n", // bad kind
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: Read accepted garbage", i)
		}
	}
}

// TestReadRequiresEnd checks that Read fails on records past its header's
// counts, whether it scans the lines itself or has handed the stream to
// encoding/json, and accepts whitespace there.
func TestReadRequiresEnd(t *testing.T) {
	const file = `{"magic":"reachac-graph-v1","nodes":2,"edges":1}` + "\n" +
		`{"name":"a"}` + "\n" + `{"name":"b"}` + "\n" + `{"f":0,"t":1,"l":"friend"}` + "\n"
	for _, tc := range []struct {
		data string
		ok   bool
	}{
		{file, true},
		{file + " \n\t\r\n", true},
		{strings.Replace(file, `{"name":"b"}`, "{\n\"name\":\"b\"}", 1) + " \n", true}, // a record over two lines: json.Decoder reads the rest
		{file + `{"f":1,"t":0,"l":"friend"}` + "\n", false},
		{file + "\n\n" + `{"f":1,"t":0,"l":"friend"}`, false},
		{file + "x", false},
		{strings.Replace(file, `{"name":"b"}`, "{\n\"name\":\"b\"}", 1) + `{"f":1,"t":0,"l":"friend"}`, false},
		{strings.Replace(file, `{"name":"b"}`, "{\n\"name\":\"b\"}", 1) + "}", false},
	} {
		g, err := Read(strings.NewReader(tc.data))
		if (err == nil) != tc.ok {
			t.Errorf("Read(%q) error %v, want ok %v", tc.data, err, tc.ok)
		}
		if err == nil && (g.NumNodes() != 2 || g.NumEdges() != 1) {
			t.Errorf("Read(%q) read %d nodes and %d edges", tc.data, g.NumNodes(), g.NumEdges())
		}
	}
}

func TestRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labels := []string{"friend", "colleague", "parent", "follows"}
	for trial := 0; trial < 20; trial++ {
		g := New()
		n := 2 + rng.Intn(20)
		for i := 0; i < n; i++ {
			var attrs Attrs
			if rng.Intn(2) == 0 {
				attrs = Attrs{"age": Int(18 + rng.Intn(60)), "city": String("c" + string(rune('a'+rng.Intn(5))))}
			}
			g.MustAddNode(nodeName(i), attrs)
		}
		for tries := 0; tries < n*3; tries++ {
			from := NodeID(rng.Intn(n))
			to := NodeID(rng.Intn(n))
			if from == to {
				continue
			}
			_, _ = g.AddEdge(from, to, labels[rng.Intn(len(labels))]) // duplicates allowed to fail
		}
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			t.Fatalf("trial %d Write: %v", trial, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("trial %d Read: %v", trial, err)
		}
		assertGraphsEqual(t, g, got)
	}
}

func nodeName(i int) string {
	return "u" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}
