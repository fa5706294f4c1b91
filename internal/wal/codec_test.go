package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"reachac/internal/core"
	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// The reference codec: the durability formats as encoding/json writes and
// reads them through the record types that define them. The hand-written
// codec must match it byte for byte on the way out and value for value,
// error or not, on the way in. The types mirror the format's tags and
// encode attribute values directly, so no hand-written code is on the
// reference's path.

type refValue struct {
	Kind string  `json:"k"`
	Str  string  `json:"s,omitempty"`
	Num  float64 `json:"n,omitempty"`
	Bool bool    `json:"b,omitempty"`
}

type refDelta struct {
	Op     graph.DeltaOp       `json:"op"`
	Name   string              `json:"name,omitempty"`
	Attrs  map[string]refValue `json:"attrs,omitempty"`
	From   graph.NodeID        `json:"from,omitempty"`
	To     graph.NodeID        `json:"to,omitempty"`
	Label  string              `json:"label,omitempty"`
	Weight float64             `json:"weight,omitempty"`
}

type refOp struct {
	Kind       OpKind       `json:"kind"`
	Delta      *refDelta    `json:"delta,omitempty"`
	Resource   string       `json:"resource,omitempty"`
	Owner      graph.NodeID `json:"owner,omitempty"`
	RuleID     string       `json:"rule,omitempty"`
	Conditions []string     `json:"conds,omitempty"`
	Policy     []byte       `json:"policy,omitempty"`
}

type refEnvelope struct {
	Prev string  `json:"prev"`
	Ops  []refOp `json:"ops"`
}

type refGraphHeader struct {
	Magic string `json:"magic"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

type refNode struct {
	Name  string              `json:"name"`
	Attrs map[string]refValue `json:"attrs,omitempty"`
}

type refEdge struct {
	From   uint32  `json:"f"`
	To     uint32  `json:"t"`
	Label  string  `json:"l"`
	Weight float64 `json:"w,omitempty"`
}

type refPolicyHeader struct {
	Magic     string `json:"magic"`
	Resources int    `json:"resources"`
}

type refPolicyRule struct {
	ID         string   `json:"id"`
	Conditions []string `json:"conditions"`
}

type refPolicyResource struct {
	Resource string          `json:"resource"`
	Owner    uint32          `json:"owner"`
	Rules    []refPolicyRule `json:"rules,omitempty"`
}

func refAttrs(a graph.Attrs) map[string]refValue {
	if len(a) == 0 {
		return nil
	}
	out := make(map[string]refValue, len(a))
	for k, v := range a {
		switch v.Kind() {
		case graph.KindNumber:
			out[k] = refValue{Kind: "n", Num: v.Num()}
		case graph.KindBool:
			out[k] = refValue{Kind: "b", Bool: v.B()}
		default:
			out[k] = refValue{Kind: "s", Str: v.Str()}
		}
	}
	return out
}

func refValueOf(v refValue) (graph.Value, error) {
	switch v.Kind {
	case "s":
		return graph.String(v.Str), nil
	case "n":
		return graph.Number(v.Num), nil
	case "b":
		return graph.Bool(v.Bool), nil
	}
	return graph.Value{}, fmt.Errorf("unknown value kind %q", v.Kind)
}

// encodeFrame appends the frame Append writes for ops linked to chain, and
// returns the advanced chain value. On error buf comes back as it was.
func encodeFrame(buf []byte, chain Chain, ops []Op) ([]byte, Chain, error) {
	g := Group{null: ops == nil}
	for i := range ops {
		if err := g.Add(&ops[i]); err != nil {
			return buf, chain, err
		}
	}
	frame, next, err := g.appendFrame(nil, chain)
	if err != nil {
		return buf, chain, err
	}
	for _, c := range frame {
		buf = append(buf, c...)
	}
	return buf, next, nil
}

// refFrame is encodeFrame on json.Marshal.
func refFrame(chain Chain, ops []Op) ([]byte, error) {
	env := refEnvelope{Prev: hex.EncodeToString(chain[:])}
	if ops != nil {
		env.Ops = []refOp{}
	}
	for _, op := range ops {
		r := refOp{Kind: op.Kind, Resource: op.Resource, Owner: op.Owner, RuleID: op.RuleID, Conditions: op.Conditions, Policy: op.Policy}
		if d := op.Delta; d != nil {
			r.Delta = &refDelta{Op: d.Op, Name: d.Name, Attrs: refAttrs(d.Attrs), From: d.From, To: d.To, Label: d.Label, Weight: d.Weight}
		}
		env.Ops = append(env.Ops, r)
	}
	payload, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	if len(payload) > MaxRecordSize {
		return nil, ErrRecordTooLarge
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	return append(hdr[:], payload...), nil
}

// refGraph is graph.Graph.Write on json.Encoder.
func refGraph(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	err := enc.Encode(refGraphHeader{Magic: "reachac-graph-v1", Nodes: g.NumNodes(), Edges: g.NumEdges()})
	g.Nodes(func(n graph.Node) bool {
		if err == nil {
			err = enc.Encode(refNode{Name: n.Name, Attrs: refAttrs(n.Attrs)})
		}
		return err == nil
	})
	g.Edges(func(e graph.Edge) bool {
		if err == nil {
			err = enc.Encode(refEdge{From: uint32(e.From), To: uint32(e.To), Label: g.LabelName(e.Label), Weight: e.Weight})
		}
		return err == nil
	})
	return buf.Bytes(), err
}

// refStore is core.Store.Write on json.Encoder.
func refStore(s *core.Store) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	resources := s.Resources()
	enc.Encode(refPolicyHeader{Magic: "reachac-policy-v1", Resources: len(resources)})
	for _, res := range resources {
		owner, _ := s.Owner(res)
		rec := refPolicyResource{Resource: string(res), Owner: uint32(owner)}
		for _, rule := range s.RulesFor(res) {
			pr := refPolicyRule{ID: rule.ID}
			for _, c := range rule.Conditions {
				pr.Conditions = append(pr.Conditions, c.Path.String())
			}
			rec.Rules = append(rec.Rules, pr)
		}
		enc.Encode(rec)
	}
	return buf.Bytes()
}

// refCheckpoint is writeCheckpoint on the reference writers.
func refCheckpoint(g *graph.Graph, s *core.Store, chain Chain) ([]byte, error) {
	gb, err := refGraph(g)
	if err != nil {
		return nil, err
	}
	sb := refStore(s)
	crc := crc32.Update(crc32.Checksum(gb, crcTable), crcTable, sb)
	hdr, err := json.Marshal(checkpointHeader{Magic: checkpointMagic, GraphLen: int64(len(gb)), StoreLen: int64(len(sb)), CRC: crc, Chain: hex.EncodeToString(chain[:])})
	if err != nil {
		return nil, err
	}
	return append(append(append(hdr, '\n'), gb...), sb...), nil
}

// refReadGraph is graph.Read on json.Decoder.
func refReadGraph(data []byte) (*graph.Graph, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var hdr refGraphHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, err
	}
	if hdr.Magic != "reachac-graph-v1" {
		return nil, errors.New("bad magic")
	}
	g := graph.New()
	for i := 0; i < hdr.Nodes; i++ {
		var rec refNode
		if err := dec.Decode(&rec); err != nil {
			return nil, err
		}
		var attrs graph.Attrs
		if len(rec.Attrs) > 0 {
			attrs = make(graph.Attrs, len(rec.Attrs))
			for k, v := range rec.Attrs {
				val, err := refValueOf(v)
				if err != nil {
					return nil, err
				}
				attrs[k] = val
			}
		}
		if _, err := g.AddNode(rec.Name, attrs); err != nil {
			return nil, err
		}
	}
	for i := 0; i < hdr.Edges; i++ {
		var rec refEdge
		if err := dec.Decode(&rec); err != nil {
			return nil, err
		}
		if _, err := g.AddWeightedEdge(graph.NodeID(rec.From), graph.NodeID(rec.To), rec.Label, rec.Weight); err != nil {
			return nil, err
		}
	}
	var rest json.RawMessage
	if err := dec.Decode(&rest); err != io.EOF {
		return nil, errors.New("data after the records")
	}
	return g, nil
}

// refReadStore is core.ReadStore on json.Decoder.
func refReadStore(data []byte, g *graph.Graph) (*core.Store, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var hdr refPolicyHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, err
	}
	if hdr.Magic != "reachac-policy-v1" {
		return nil, errors.New("bad magic")
	}
	s := core.NewStore()
	for i := 0; i < hdr.Resources; i++ {
		var rec refPolicyResource
		if err := dec.Decode(&rec); err != nil {
			return nil, err
		}
		owner := graph.NodeID(rec.Owner)
		if !g.ValidNode(owner) {
			return nil, errors.New("owner not in graph")
		}
		if err := s.Register(core.ResourceID(rec.Resource), owner); err != nil {
			return nil, err
		}
		for _, pr := range rec.Rules {
			rule := &core.Rule{ID: pr.ID, Resource: core.ResourceID(rec.Resource), Owner: owner}
			for _, cs := range pr.Conditions {
				p, err := pathexpr.Parse(cs)
				if err != nil {
					return nil, err
				}
				rule.Conditions = append(rule.Conditions, core.Condition{Path: p})
			}
			if err := s.AddRule(rule); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Pools the randomized trace and the fuzz seeds draw from: strings with
// HTML characters, escapes, line separators, non-ASCII and invalid UTF-8,
// and floats on both sides of every boundary of encoding/json's format.
var (
	oddStrings = []string{"alice", "", "<b&c>", `q"u\o`, "tab\t", "é", "  ", "\xff\xfe", "日本", "\x00", "a/b", "\U0001F600"}
	oddFloats  = []float64{0, 1, -0.0, 0.5, 1e21, 1e20, 1e-7, 1e-6, 9.999999e-7, -1e21, 5e-324, math.MaxFloat64, 123456789.125, -3.25e-9, 0.1}
	tracePaths = []string{"friend+[1,2]", "colleague+[1,1]{age>22}", `friend/parent-[1,2]{city!="paris"}`, "friend+[2,*]"}
)

// traceGroup returns one record group of 1-4 random operations, each valid
// against (g, s), and applies them there.
func traceGroup(t *testing.T, rng *rand.Rand, g *graph.Graph, s *core.Store, seq *int) ([]Op, *core.Store) {
	t.Helper()
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	var ops []Op
	for n := 1 + rng.Intn(4); len(ops) < n; {
		*seq++
		var op Op
		switch k := rng.Intn(10); {
		case k < 3 || g.NumNodes() < 2:
			attrs := graph.Attrs{}
			for i := rng.Intn(4); i > 0; i-- {
				switch rng.Intn(3) {
				case 0:
					attrs[pick(oddStrings)] = graph.String(pick(oddStrings))
				case 1:
					attrs[pick(oddStrings)] = graph.Number(oddFloats[rng.Intn(len(oddFloats))])
				default:
					attrs[pick(oddStrings)] = graph.Bool(rng.Intn(2) == 0)
				}
			}
			op = GraphOp(graph.Delta{Op: graph.OpAddNode, Name: fmt.Sprintf("%s-%d", pick(oddStrings), *seq), Attrs: attrs})
		case k < 6:
			from, to := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
			label := pick(oddStrings[:7])
			if from == to || g.HasEdge(from, to, label) {
				continue
			}
			op = GraphOp(graph.Delta{Op: graph.OpAddEdge, From: from, To: to, Label: label, Weight: oddFloats[rng.Intn(len(oddFloats))]})
		case k == 6:
			var live []graph.Edge
			g.Edges(func(e graph.Edge) bool { live = append(live, e); return true })
			if len(live) == 0 {
				continue
			}
			e := live[rng.Intn(len(live))]
			op = GraphOp(graph.Delta{Op: graph.OpRemoveEdge, From: e.From, To: e.To, Label: g.LabelName(e.Label)})
		case k < 9:
			res := pick(oddStrings[:7]) + "-res"
			owner, ok := s.Owner(core.ResourceID(res))
			if !ok {
				owner = graph.NodeID(rng.Intn(g.NumNodes()))
			}
			op = ShareOp(res, owner, fmt.Sprintf("rule-%d", *seq), []string{pick(tracePaths), pick(tracePaths)}[:1+rng.Intn(2)])
		default:
			if rng.Intn(4) == 0 {
				var buf bytes.Buffer
				if err := s.Write(&buf); err != nil {
					t.Fatal(err)
				}
				op = PolicyResetOp(buf.Bytes())
				break
			}
			resources := s.Resources()
			if len(resources) == 0 {
				continue
			}
			res := resources[rng.Intn(len(resources))]
			rules := s.RulesFor(res)
			if len(rules) == 0 {
				continue
			}
			op = RevokeOp(string(res), rules[rng.Intn(len(rules))].ID)
		}
		var err error
		if s, err = op.Apply(g, s); err != nil {
			t.Fatalf("trace op %+v: %v", op, err)
		}
		ops = append(ops, op)
	}
	return ops, s
}

// TestDurableFormatUnchanged runs a randomized trace through a Log and pins
// every WAL segment, checkpoint and state stream it writes to the reference
// codec's bytes.
func TestDurableFormatUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{Sync: SyncNever})
	defer l.Close()
	g, s := graph.New(), core.NewStore()
	var chain Chain
	seq := 0
	kinds := map[OpKind]int{}
	for round := 0; round < 5; round++ {
		var want []byte
		for i := 0; i < 40; i++ {
			var ops []Op
			ops, s = traceGroup(t, rng, g, s, &seq)
			for _, op := range ops {
				kinds[op.Kind]++
			}
			frame, err := refFrame(chain, ops)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, frame...)
			chain = chainNext(chain, frame[frameHeaderSize:])
			if err := l.Append(ops); err != nil {
				t.Fatal(err)
			}
		}
		segment, err := os.ReadFile(segmentPath(dir, l.Seq()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(segment, want) {
			t.Fatalf("round %d: segment differs from the reference frames at byte %d", round, firstDiff(segment, want))
		}
		covered, err := l.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WriteCheckpoint(covered, g, s); err != nil {
			t.Fatal(err)
		}
		ckpt, err := os.ReadFile(checkpointPath(dir, covered))
		if err != nil {
			t.Fatal(err)
		}
		if want, err := refCheckpoint(g, s, chain); err != nil || !bytes.Equal(ckpt, want) {
			t.Fatalf("round %d: checkpoint differs from the reference at byte %d (%v)", round, firstDiff(ckpt, want), err)
		}
		var state bytes.Buffer
		if err := WriteState(&state, g, s); err != nil {
			t.Fatal(err)
		}
		if want, err := refCheckpoint(g, s, Chain{}); err != nil || !bytes.Equal(state.Bytes(), want) {
			t.Fatalf("round %d: state stream differs from the reference at byte %d (%v)", round, firstDiff(state.Bytes(), want), err)
		}
	}
	for _, k := range []OpKind{OpGraph, OpShare, OpRevoke, OpPolicyReset} {
		if kinds[k] == 0 {
			t.Errorf("the trace logged no %v op", k)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// FuzzDurabilityCodec pins the durability codec to encoding/json. On
// arbitrary names, labels, attributes, IDs and conditions, every encoder —
// group envelopes, graph lines, policy lines — writes the reference's
// bytes; on arbitrary bytes, every decoder returns the reference's value
// and fails exactly when it does.
func FuzzDurabilityCodec(f *testing.F) {
	for i, str := range oddStrings {
		f.Add(str, oddStrings[(i+1)%len(oddStrings)], oddStrings[(i+2)%len(oddStrings)], oddFloats[i%len(oddFloats)], oddFloats[(i+3)%len(oddFloats)], uint32(i), tracePaths[i%len(tracePaths)], []byte(nil))
	}
	var chain Chain
	frame, _, err := encodeFrame(nil, chain, []Op{
		GraphOp(graph.Delta{Op: graph.OpAddNode, Name: "alice", Attrs: graph.Attrs{"age": graph.Int(30)}}),
		ShareOp("photo", 0, "rule-1", []string{"friend+[1,1]"}),
	})
	if err != nil {
		f.Fatal(err)
	}
	g := graph.New()
	g.AddNode("a", graph.Attrs{"age": graph.Int(30), "vip": graph.Bool(true), "city": graph.String("<x>")})
	g.AddNode("b", nil)
	g.AddWeightedEdge(0, 1, "friend", 0.25)
	var gb, sb bytes.Buffer
	g.Write(&gb)
	s := core.NewStore()
	s.Register("photo", 0)
	s.AddRule(&core.Rule{Resource: "photo", Owner: 0, Conditions: []core.Condition{{Path: pathexpr.MustParse("friend+[1,2]")}}})
	s.Write(&sb)
	for _, data := range []string{
		string(frame[frameHeaderSize:]),
		gb.String(),
		sb.String(),
		replace1(gb.String(), "\n", "\n\n"),
		replace1(gb.String(), "}\n{", "}{"),
		replace1(gb.String(), `"name":"a",`, "\n\"name\":\"a\",\n"),
		replace1(gb.String(), `"f":0`, `"F":0`),
		replace1(gb.String(), `"w":0.25`, `"w":0.25,"w":1`),
		replace1(gb.String(), `"nodes":2`, `"nodes":2.0`),
		replace1(sb.String(), `"owner":0`, `"owner":-0`),
		replace1(sb.String(), `"id":"rule-1"`, `"id":null`),
		replace1(string(frame[frameHeaderSize:]), `"kind":1`, `"kind":256`),
		`{"prev":"","ops":[{"kind":4,"policy":"e30="},{"kind":2,"conds":[],"delta":{"op":0,"attrs":{}}}]}`,
		`{"prev":"00","ops":[{"kind":1,"delta":{"op":0,"attrs":{"a":{"k":"x"}}}}]}`,
		`{"prev":"00","ops":[{"kind":1,"delta":{"op":0,"attrs":{"a":{"k":"n","n":1e400}}}}]}`,
		`{"prev":"00","ops":[{"kind":1,"delta":{"op":0,"attrs":{"a":{"k":"s"},"a":{"k":"b","b":true}}}}]}`,
		`{"prev":"00","ops":[{"kind":3,"policy":"e30"}]}`,
		`{"prev":"0","ops":null}`,
	} {
		f.Add("", "", "", 0.0, 0.0, uint32(0), "", []byte(data))
	}
	f.Fuzz(func(t *testing.T, name, label, str string, num, weight float64, id uint32, cond string, data []byte) {
		attrs := graph.Attrs{str: graph.String(name), label: graph.Number(num), name: graph.Bool(id%2 == 0), "": graph.String(label)}
		checkGroupCodec(t, []Op{
			GraphOp(graph.Delta{Op: graph.OpAddNode, Name: name, Attrs: attrs}),
			GraphOp(graph.Delta{Op: graph.OpAddEdge, From: graph.NodeID(id), To: graph.NodeID(id / 3), Label: label, Weight: weight}),
			GraphOp(graph.Delta{Op: graph.OpRemoveEdge, From: graph.NodeID(id / 5), To: graph.NodeID(id), Label: str}),
			ShareOp(str, graph.NodeID(id), cond, []string{cond, name}),
			RevokeOp(name, cond),
			PolicyResetOp([]byte(str)),
			{Kind: OpKind(id)},
		})
		checkGraphCodec(t, name, label, attrs, weight)
		checkStoreCodec(t, str, label, cond, graph.NodeID(id%2))
		checkDecoders(t, data)
	})
}

func replace1(s, old, new string) string { return strings.Replace(s, old, new, 1) }

// checkGroupCodec compares encodeFrame's bytes with the reference's and
// decodes what it wrote.
func checkGroupCodec(t *testing.T, ops []Op) {
	t.Helper()
	var chain Chain
	for _, group := range [][]Op{ops, ops[:1], {}, nil} {
		got, _, err := encodeFrame([]byte("prefix"), chain, group)
		want, wantErr := refFrame(chain, group)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("encodeFrame(%+v) error %v, reference %v", group, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("encodeFrame(%+v) =\n%q, reference\n%q", group, got[len("prefix"):], want)
		}
		checkDecoders(t, want[frameHeaderSize:])
		chain[0]++
	}
}

// checkGraphCodec compares the graph file a StreamWriter writes with the
// reference's, and reads it back.
func checkGraphCodec(t *testing.T, name, label string, attrs graph.Attrs, weight float64) {
	t.Helper()
	var got bytes.Buffer
	sw := graph.NewStreamWriter(&got, 2, 1)
	sw.Node(name, attrs)
	sw.Node(label, nil)
	sw.Edge(0, 1, label, weight)
	err := sw.Close()

	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	wantErr := enc.Encode(refGraphHeader{Magic: "reachac-graph-v1", Nodes: 2, Edges: 1})
	for _, v := range []any{refNode{Name: name, Attrs: refAttrs(attrs)}, refNode{Name: label}, refEdge{From: 0, To: 1, Label: label, Weight: weight}} {
		if wantErr == nil {
			wantErr = enc.Encode(v)
		}
	}
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("graph lines error %v, reference %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("graph lines\n%q, reference\n%q", got.Bytes(), want.Bytes())
	}
	checkDecoders(t, want.Bytes())
}

// checkStoreCodec compares the policy file a one-rule store writes with the
// reference's, and reads it back.
func checkStoreCodec(t *testing.T, res, id, cond string, owner graph.NodeID) {
	t.Helper()
	s := core.NewStore()
	if err := s.Register(core.ResourceID(res), owner); err != nil {
		t.Fatal(err)
	}
	p, err := pathexpr.Parse(cond)
	if err != nil {
		p = pathexpr.MustParse("friend+[1,2]")
	}
	s.AddRule(&core.Rule{ID: id, Resource: core.ResourceID(res), Owner: owner, Conditions: []core.Condition{{Path: p}, {Path: pathexpr.MustParse("colleague-[1,1]")}}})
	var got bytes.Buffer
	if err := s.Write(&got); err != nil {
		t.Fatal(err)
	}
	if want := refStore(s); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("policy lines\n%q, reference\n%q", got.Bytes(), want)
	}
	checkDecoders(t, got.Bytes())
}

// checkDecoders reads data as a group payload, a graph file and a policy
// file, each with the codec and the reference, and compares the results.
func checkDecoders(t *testing.T, data []byte) {
	t.Helper()
	env, err := decodeEnvelope(data)
	var want groupEnvelope
	wantErr := json.Unmarshal(data, &want)
	if (err != nil) != (wantErr != nil) || !reflect.DeepEqual(env, want) {
		t.Fatalf("decodeEnvelope(%q) = %+v, %v; json.Unmarshal gives %+v, %v", data, env, err, want, wantErr)
	}

	g, err := graph.Read(bytes.NewReader(data))
	wantG, wantErr := refReadGraph(data)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("graph.Read(%q) error %v, reference %v", data, err, wantErr)
	}
	if err == nil {
		got, _ := refGraph(g)
		want, _ := refGraph(wantG)
		if !bytes.Equal(got, want) {
			t.Fatalf("graph.Read(%q) read\n%q, reference\n%q", data, got, want)
		}
	}

	owners := graph.New()
	owners.AddNode("a", nil)
	owners.AddNode("b", nil)
	s, err := core.ReadStore(bytes.NewReader(data), owners)
	wantS, wantErr := refReadStore(data, owners)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("core.ReadStore(%q) error %v, reference %v", data, err, wantErr)
	}
	if err == nil && !bytes.Equal(refStore(s), refStore(wantS)) {
		t.Fatalf("core.ReadStore(%q) read\n%q, reference\n%q", data, refStore(s), refStore(wantS))
	}
}

// TestGroupMatchesReference builds multi-megabyte groups operation by
// operation, truncating some runs of operations as a failed sub-transaction
// does, and requires the framed chunks to equal the reference frame of the
// operations kept, and the chain value to advance over that frame.
func TestGroupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randOp := func(i int) Op {
		switch rng.Intn(9) {
		case 0:
			return GraphOp(graph.Delta{Op: graph.OpAddNode, Name: fmt.Sprintf("u%07d", i), Attrs: graph.Attrs{"age": graph.Number(float64(rng.Intn(90)))}})
		case 1:
			return ShareOp(fmt.Sprintf("res-%d", i), graph.NodeID(i), fmt.Sprintf("rule-%d", i), []string{"friend+[1,2]"})
		case 2:
			return RevokeOp("res", fmt.Sprintf("rule-%d", i))
		case 3:
			if rng.Intn(50) == 0 {
				return PolicyResetOp(bytes.Repeat([]byte{'p'}, rng.Intn(3*maxChunk/2)))
			}
			fallthrough
		default:
			return GraphOp(graph.Delta{Op: graph.OpAddEdge, From: graph.NodeID(rng.Intn(1e6)), To: graph.NodeID(rng.Intn(1e6)), Label: "friend"})
		}
	}
	var g Group
	for round := 0; round < 3; round++ {
		g.Reset()
		var kept []Op
		for len(kept) < 40000 {
			mark, n := g.Mark(), len(kept)
			for j := rng.Intn(40); j > 0; j-- {
				op := randOp(len(kept))
				if err := g.Add(&op); err != nil {
					t.Fatal(err)
				}
				kept = append(kept, op)
			}
			if rng.Intn(4) == 0 {
				g.Truncate(mark)
				kept = kept[:n]
			}
		}
		if g.Len() != len(kept) {
			t.Fatalf("round %d: group holds %d ops, want %d", round, g.Len(), len(kept))
		}
		chain := Chain{byte(round)}
		want, err := refFrame(chain, kept)
		if errors.Is(err, ErrRecordTooLarge) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		frame, next, err := g.appendFrame(nil, chain)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Join(frame, nil); !bytes.Equal(got, want) {
			t.Fatalf("round %d: %d-chunk frame differs from the reference at byte %d", round, len(frame), firstDiff(got, want))
		}
		if len(frame) < 4 {
			t.Fatalf("round %d: a %d-byte group framed in %d chunks", round, len(want), len(frame))
		}
		if next != chainNext(chain, want[frameHeaderSize:]) {
			t.Fatalf("round %d: chain advanced to %x", round, next[:8])
		}
	}
}

// TestAppendFramesAsReference pins that Log.Append writes the reference
// frame of every list, a nil list (whose operations json.Marshal writes as
// null) and an empty one (written as []) included.
func TestAppendFramesAsReference(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{Sync: SyncNever})
	defer l.Close()
	edge := GraphOp(graph.Delta{Op: graph.OpAddEdge, From: 1, To: 2, Label: "friend"})
	chain := l.Chain()
	var want []byte
	for _, ops := range [][]Op{nil, {}, {edge}, {edge, RevokeOp("res", "r1"), edge}, nil} {
		frame, err := refFrame(chain, ops)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame...)
		chain = chainNext(chain, frame[frameHeaderSize:])
		if err := l.Append(ops); err != nil {
			t.Fatal(err)
		}
	}
	if l.Chain() != chain {
		t.Fatalf("the log's chain is %x, the reference's %x", l.Chain(), chain)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the segment differs from the reference frames at byte %d:\n%q\n%q", firstDiff(got, want), got, want)
	}
}

// TestLogKeepsNoBulkBuffer pins that the log keeps at most RetainMax bytes
// of frame buffer after a multi-megabyte Append or AppendGroup, and that a
// Group keeps no more across Reset.
func TestLogKeepsNoBulkBuffer(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{Sync: SyncNever})
	defer l.Close()
	held := func(chunks [][]byte) (n int) {
		for _, c := range chunks[:cap(chunks)] {
			n += cap(c)
		}
		return n
	}
	var bulk []Op
	for i := 0; i < 50000; i++ {
		bulk = append(bulk, GraphOp(graph.Delta{Op: graph.OpAddEdge, From: graph.NodeID(i), To: graph.NodeID(i + 1), Label: "friend"}))
	}
	if err := l.Append(bulk); err != nil {
		t.Fatal(err)
	}
	if size := l.Size(); size < 3<<20 {
		t.Fatalf("the bulk group framed only %d bytes", size)
	}
	if n := held(l.scratch.chunks) + held(l.frame); n > RetainMax {
		t.Fatalf("after a bulk Append the log holds %d bytes of frame buffer, bound %d", n, RetainMax)
	}
	var g Group
	for i := range bulk {
		if err := g.Add(&bulk[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendGroup(&g); err != nil {
		t.Fatal(err)
	}
	if n := held(l.scratch.chunks) + held(l.frame); n > RetainMax {
		t.Fatalf("after a bulk AppendGroup the log holds %d bytes of frame buffer, bound %d", n, RetainMax)
	}
	g.Reset()
	if n := held(g.chunks); n > RetainMax {
		t.Fatalf("a reset group holds %d bytes, bound %d", n, RetainMax)
	}
	if err := l.Append(bulk[:1]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if offs, err := RecordOffsets(segmentPath(dir, 1)); err != nil || len(offs) != 3 {
		t.Fatalf("the segment holds %d valid frames, want 3 (%v)", len(offs), err)
	}
}

// TestAppendAllocs pins that a warm one-op Append allocates nothing: the
// frame is appended into the log's scratch buffer and written as it is.
func TestAppendAllocs(t *testing.T) {
	l, _ := openLog(t, t.TempDir(), Options{Sync: SyncNever})
	defer l.Close()
	for _, ops := range [][]Op{
		{GraphOp(graph.Delta{Op: graph.OpAddEdge, From: 1, To: 2, Label: "friend"})},
		{GraphOp(graph.Delta{Op: graph.OpAddNode, Name: "u000123"})},
		{RevokeOp("photo", "rule-7")},
	} {
		if err := l.Append(ops); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { _ = l.Append(ops) }); got != 0 {
			t.Errorf("%+v: %v allocs per Append, want 0", ops[0], got)
		}
	}
}
