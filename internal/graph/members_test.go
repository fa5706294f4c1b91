package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// memberRef is the reference member table: every node in ID order and a
// map from name to ID.
type memberRef struct {
	nodes []Node
	ids   map[string]NodeID
}

// add adds a node as AddNode should, returning what AddNode should return.
func (r *memberRef) add(name string, attrs Attrs) (NodeID, error) {
	if id, ok := r.ids[name]; ok {
		return id, errDuplicateNode(name)
	}
	id := NodeID(len(r.nodes))
	r.nodes = append(r.nodes, Node{ID: id, Name: name, Attrs: attrs})
	r.ids[name] = id
	return id, nil
}

// checkMembers asserts that g's member table reads as ref's: NumNodes,
// Node and Attr by ID, Nodes in ID order, and NodeByName of every name in
// pool, hit or miss.
func checkMembers(t *testing.T, what string, g *Graph, ref *memberRef, pool []string) {
	t.Helper()
	if g.NumNodes() != len(ref.nodes) {
		t.Fatalf("%s: %d nodes, want %d", what, g.NumNodes(), len(ref.nodes))
	}
	var got []Node
	g.Nodes(func(n Node) bool { got = append(got, n); return true })
	if len(got) != len(ref.nodes) || len(got) > 0 && !reflect.DeepEqual(got, ref.nodes) {
		t.Fatalf("%s: Nodes %q, want %q", what, got, ref.nodes)
	}
	for _, n := range ref.nodes {
		if g := g.Node(n.ID); !reflect.DeepEqual(g, n) {
			t.Fatalf("%s: Node(%d) = %q, want %q", what, n.ID, g, n)
		}
		gv, gok := g.Attr(n.ID, "age")
		wv, wok := n.Attrs.Get("age")
		if gv != wv || gok != wok {
			t.Fatalf("%s: Attr(%d, age) = %v, %v, want %v, %v", what, n.ID, gv, gok, wv, wok)
		}
	}
	for _, name := range pool {
		id, ok := g.NodeByName(name)
		wid, wok := ref.ids[name]
		if !wok {
			wid = InvalidNode
		}
		if ok != wok || ok && id != wid {
			t.Fatalf("%s: NodeByName(%q) = %d, %v, want %d, %v", what, name, id, ok, wid, wok)
		}
	}
}

// TestMemberTableMatchesReference drives random AddNode calls, Clones and
// Rebases — nodes added after a base included — over names drawn from a
// pool small enough to repeat, the empty name and bytes that are not UTF-8
// among them, and checks the graph's member table against a reference map
// and node list after every call. It then feeds each sequence to a Loader:
// with its repeats, Graph must report the first with AddNode's error text;
// without them, the loaded graph must give every node the ID New, AddNode
// and Rebase give it.
func TestMemberTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	alphabet := []byte{'a', 'b', 0, 0x80, 0xff, 0xc3}
	pool := []string{""}
	for len(pool) < 48 {
		name := make([]byte, 1+rng.Intn(3))
		for i := range name {
			name[i] = alphabet[rng.Intn(len(alphabet))]
		}
		pool = append(pool, string(name))
	}
	for trial := range 150 {
		type call struct {
			name  string
			attrs Attrs
		}
		var calls []call
		ref := &memberRef{ids: map[string]NodeID{}}
		g := New()
		for op := range rng.Intn(64) {
			switch r := rng.Intn(10); {
			case r < 7:
				c := call{name: pool[rng.Intn(len(pool))]}
				if rng.Intn(3) == 0 {
					c.attrs = Attrs{"age": Int(rng.Intn(90))}
				}
				calls = append(calls, c)
				id, err := g.AddNode(c.name, c.attrs)
				wid, werr := ref.add(c.name, c.attrs)
				if id != wid || fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("trial %d op %d: AddNode(%q) = %d, %v, want %d, %v", trial, op, c.name, id, err, wid, werr)
				}
			case r < 8:
				c := g.Clone()
				if rng.Intn(2) == 0 {
					// The original must not see what the clone adds.
					c.MustAddNode("clone-only", nil)
					checkMembers(t, "original beside its clone", g, ref, pool)
				} else {
					g = c
				}
			default:
				g.Rebase()
			}
			checkMembers(t, fmt.Sprintf("trial %d op %d", trial, op), g, ref, pool)
		}

		l, unique := NewLoader(), NewLoader()
		var firstRepeat error
		seen := map[string]bool{}
		for _, c := range calls {
			if _, err := l.AddNode(c.name, c.attrs); err != nil {
				t.Fatalf("trial %d: Loader.AddNode(%q) = %v", trial, c.name, err)
			}
			if seen[c.name] {
				if firstRepeat == nil {
					firstRepeat = errDuplicateNode(c.name)
				}
				continue
			}
			seen[c.name] = true
			unique.AddNode(c.name, c.attrs)
		}
		if _, err := l.Graph(); fmt.Sprint(err) != fmt.Sprint(firstRepeat) {
			t.Fatalf("trial %d: Loader.Graph() = %v, want %v", trial, err, firstRepeat)
		}
		loaded, err := unique.Graph()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkMembers(t, fmt.Sprintf("trial %d loaded", trial), loaded, ref, pool)
		rebuilt := New()
		for _, n := range ref.nodes {
			rebuilt.MustAddNode(n.Name, n.Attrs)
		}
		rebuilt.Rebase()
		checkMembers(t, fmt.Sprintf("trial %d rebuilt", trial), rebuilt, ref, pool)
	}
}

// TestNameBytesBound pins the explicit error at the names column's bound:
// a node whose name would take the names past maxNameBytes is refused, and
// the graph stays as it was. The private part's byte count is set just
// short of the bound, so nothing large is allocated.
func TestNameBytesBound(t *testing.T) {
	g := New()
	g.MustAddNode("a", nil)
	g.nameBytes = maxNameBytes - 2
	g.MustAddNode("bc", nil)
	v := g.Version()
	if id, err := g.AddNode("d", nil); err == nil || id != InvalidNode {
		t.Fatalf("AddNode past the names bound = %d, %v, want an error", id, err)
	}
	if g.Version() != v || g.NumNodes() != 2 {
		t.Fatalf("a refused AddNode changed the graph: version %d→%d, %d nodes", v, g.Version(), g.NumNodes())
	}
	if _, ok := g.NodeByName("d"); ok {
		t.Fatal("a refused node resolves")
	}
	if checkNameBytes(maxNameBytes) != nil || checkNameBytes(maxNameBytes+1) == nil {
		t.Fatal("checkNameBytes does not refuse exactly past maxNameBytes")
	}
}
