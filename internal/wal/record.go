// Package wal implements the durability subsystem: a write-ahead log of
// framed, CRC-protected record groups plus periodic checkpoints, together
// supporting crash recovery with torn-tail tolerance.
//
// One record group is the unit of atomicity: it holds the ordered operations
// of one committed mutation batch (structural graph deltas and policy
// operations), serialized as a JSON envelope and framed as
//
//	[length uint32 LE][crc32c(payload) uint32 LE][payload]
//	payload = {"prev":"<hex SHA-256 chain of the previous group>","ops":[...]}
//
// A group either replays in full or — when the tail of the newest segment is
// torn by a crash mid-write — is dropped in full, so recovery always lands
// on a batch boundary. The prev link makes the log a tamper-evident hash
// chain (see chain.go); pre-chain logs whose payloads are bare JSON arrays
// still replay, absorbed into the chain without a link check. Checkpoints
// reuse the graph and policy-store JSON writers verbatim, so the compact
// state format stays diffable and independently readable.
//
// The envelopes are written and read by hand on the internal/codec kernel,
// as graph files and policy files are, not reflected over by encoding/json:
// appendGroup writes exactly the bytes json.Marshal writes for the
// envelope, and decodeEnvelope scans that shape and hands anything else to
// json.Unmarshal, so it returns what json.Unmarshal returns.
// FuzzDurabilityCodec pins both against a json.Marshal reference, and a log
// written through encoding/json replays unchanged.
package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"

	"reachac/internal/codec"
	"reachac/internal/core"
	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// OpKind tags one logged operation.
type OpKind uint8

// Logged operation kinds.
const (
	// OpGraph is a structural mutation, carried as a graph.Delta.
	OpGraph OpKind = iota + 1
	// OpShare registers a resource (idempotently) and attaches one access
	// rule with an explicit rule ID, mirroring Network.Share.
	OpShare
	// OpRevoke detaches one access rule, mirroring Network.Revoke.
	OpRevoke
	// OpPolicyReset replaces the whole policy store with one serialized by
	// core.Store.Write, mirroring Network.LoadPolicies.
	OpPolicyReset
)

func (k OpKind) String() string {
	switch k {
	case OpGraph:
		return "graph"
	case OpShare:
		return "share"
	case OpRevoke:
		return "revoke"
	case OpPolicyReset:
		return "policy-reset"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one logged operation. Exactly the fields implied by Kind are set;
// zero values of the unused fields round-trip losslessly through omitempty.
type Op struct {
	Kind OpKind `json:"kind"`
	// Delta carries an OpGraph structural mutation.
	Delta *graph.Delta `json:"delta,omitempty"`
	// Resource, Owner, RuleID and Conditions describe OpShare (all four) and
	// OpRevoke (Resource and RuleID). Conditions are canonical path strings.
	Resource   string       `json:"resource,omitempty"`
	Owner      graph.NodeID `json:"owner,omitempty"`
	RuleID     string       `json:"rule,omitempty"`
	Conditions []string     `json:"conds,omitempty"`
	// Policy is an OpPolicyReset payload: the core.Store.Write serialization
	// of the replacement store.
	Policy []byte `json:"policy,omitempty"`
}

// GraphOp wraps one structural delta as a logged operation.
func GraphOp(d graph.Delta) Op { return Op{Kind: OpGraph, Delta: &d} }

// ShareOp builds the logged form of one Share call.
func ShareOp(resource string, owner graph.NodeID, ruleID string, conds []string) Op {
	return Op{Kind: OpShare, Resource: resource, Owner: owner, RuleID: ruleID, Conditions: conds}
}

// RevokeOp builds the logged form of one Revoke call.
func RevokeOp(resource, ruleID string) Op {
	return Op{Kind: OpRevoke, Resource: resource, RuleID: ruleID}
}

// PolicyResetOp builds the logged form of one LoadPolicies call.
func PolicyResetOp(policy []byte) Op { return Op{Kind: OpPolicyReset, Policy: policy} }

// Apply replays one decoded operation onto the recovering state. It returns
// the (possibly replaced) policy store: OpPolicyReset swaps in a new store,
// every other kind mutates in place and returns s. Apply must never panic on
// a decoded record, however adversarial — the graph and store validate every
// reference — so a log that passes CRC but fails application yields a clean
// recovery error, not a crash.
func (op Op) Apply(g *graph.Graph, s *core.Store) (*core.Store, error) {
	switch op.Kind {
	case OpGraph:
		if op.Delta == nil {
			return s, fmt.Errorf("wal: graph op without delta")
		}
		return s, g.Apply(*op.Delta)
	case OpShare:
		if !g.ValidNode(op.Owner) {
			return s, fmt.Errorf("wal: share of %q by unknown node %d", op.Resource, op.Owner)
		}
		if err := s.Register(core.ResourceID(op.Resource), op.Owner); err != nil {
			return s, err
		}
		rule := &core.Rule{ID: op.RuleID, Resource: core.ResourceID(op.Resource), Owner: op.Owner}
		for _, cs := range op.Conditions {
			p, err := pathexpr.Parse(cs)
			if err != nil {
				return s, fmt.Errorf("wal: share condition %q: %w", cs, err)
			}
			rule.Conditions = append(rule.Conditions, core.Condition{Path: p})
		}
		return s, s.AddRule(rule)
	case OpRevoke:
		if !s.RemoveRule(core.ResourceID(op.Resource), op.RuleID) {
			return s, fmt.Errorf("wal: revoke of unknown rule %q on %q", op.RuleID, op.Resource)
		}
		return s, nil
	case OpPolicyReset:
		ns, err := core.ReadStore(bytes.NewReader(op.Policy), g)
		if err != nil {
			return s, fmt.Errorf("wal: policy reset: %w", err)
		}
		return ns, nil
	default:
		return s, fmt.Errorf("wal: unknown op kind %d", uint8(op.Kind))
	}
}

// Record framing constants.
const (
	frameHeaderSize = 8
	// MaxRecordSize bounds one framed payload; a length beyond it marks the
	// frame (and everything after) as corrupt.
	MaxRecordSize = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// groupEnvelope is the on-disk payload of one record group: the operations
// plus the chain link to the previous group.
type groupEnvelope struct {
	Prev string `json:"prev"`
	Ops  []Op   `json:"ops"`
}

// ErrRecordTooLarge rejects a record group whose payload would exceed
// MaxRecordSize. The group is refused before anything is written, so the
// log is left as it was.
var ErrRecordTooLarge = errors.New("wal: record group exceeds the size limit")

// RetainMax bounds the frame buffers a Group keeps across Reset, and so
// what the log keeps between appends. A one-mutation frame is ~100-200
// bytes and a server commit group of 128 coalesced mutations (the server's
// default cap) ~15 KB, so every steady-state append reuses its buffers. A
// bulk group is larger: the 20k-member import the HTTP benchmark workloads
// set up through is a 10.9 MB frame, which a log that kept its largest
// buffer held for the life of the process, 57 % of http-check's heap_mb.
const RetainMax = 64 << 10

// chunkList is a byte sequence held in chunks that are only added, never
// copied to grow: the first holds firstChunk bytes and each next one
// doubles, up to maxChunk. Chunks past len, up to cap, are spares a
// truncation left for reuse. Group encodes record groups into one, and the
// checkpoint writer serializes its sections into another.
type chunkList [][]byte

// Chunk sizes: the first chunk holds a one-op group, and each next one
// doubles up to maxChunk.
const (
	firstChunk = 512
	maxChunk   = 1 << 20
)

// next makes a spare or new chunk the last one and returns its index.
func (l *chunkList) next() int {
	k := len(*l)
	if k < cap(*l) && (*l)[:k+1][k] != nil {
		*l = (*l)[:k+1]
		(*l)[k] = (*l)[k][:0]
	} else {
		*l = append(*l, make([]byte, 0, min(firstChunk<<min(k, 16), maxChunk)))
	}
	return k
}

// Write appends p, filling the last chunk before it adds the next.
func (l *chunkList) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		k := len(*l) - 1
		if k < 0 || len((*l)[k]) == cap((*l)[k]) {
			k = l.next()
		}
		c := (*l)[k]
		m := copy(c[len(c):cap(c)], p)
		(*l)[k], p = c[:len(c)+m], p[m:]
	}
	return n, nil
}

// size returns the number of bytes held.
func (l chunkList) size() (n int) {
	for _, c := range l {
		n += len(c)
	}
	return n
}

// minRoom is the spare room under which a Group starts an operation in a
// new chunk; a larger operation grows its chunk.
const minRoom = 256

// groupHead is the space a Group reserves ahead of its operations: the
// frame header, and the envelope up to the operations array, whose chain
// link is only known when the log appends the group.
const groupHead = frameHeaderSize + len(`{"prev":"`) + 2*len(Chain{}) + len(`","ops":`)

// Group is one record group encoded operation by operation, behind reserved
// space for the frame header and the chain link: the frame is the
// concatenation of its chunks. A writer adds each operation as it applies
// it, and Log.AppendGroup frames the group where it lies, so a bulk batch
// is encoded once, never held as a list of operations, and never copied
// to grow: chunks are only added. The zero Group is empty.
type Group struct {
	chunks chunkList
	n      int
	// null frames an empty group's operations as null, as json.Marshal
	// writes a nil list (an empty one is []); Log.Append sets it for a nil
	// list.
	null bool
}

// GroupMark is a position in a Group, for Truncate.
type GroupMark struct{ chunks, off, n int }

// Add appends one operation. On error (a value the format cannot encode,
// such as a NaN attribute) the group is left as it was.
func (g *Group) Add(op *Op) error {
	c := g.room()
	buf := g.chunks[c]
	mark := len(buf)
	if g.n > 0 {
		buf = append(buf, ',')
	} else {
		buf = append(buf, '[')
	}
	buf, err := appendOp(buf, op)
	if err != nil {
		g.chunks[c] = buf[:mark]
		return err
	}
	g.chunks[c] = buf
	g.n++
	return nil
}

// room returns the index of the chunk the next operation goes into: the
// last one, or a spare or new one when the last has under minRoom bytes to
// spare. The first chunk starts with the reserved head.
func (g *Group) room() int {
	k := len(g.chunks)
	if k > 0 && cap(g.chunks[k-1])-len(g.chunks[k-1]) >= minRoom {
		return k - 1
	}
	if g.chunks.next() == 0 {
		g.chunks[0] = append(g.chunks[0], make([]byte, groupHead)...)
	}
	return k
}

// Len returns the number of operations in the group.
func (g *Group) Len() int { return g.n }

// Mark returns the group's current end, for Truncate.
func (g *Group) Mark() GroupMark {
	m := GroupMark{chunks: len(g.chunks), n: g.n}
	if m.chunks > 0 {
		m.off = len(g.chunks[m.chunks-1])
	}
	return m
}

// Truncate drops every operation added since m was taken.
func (g *Group) Truncate(m GroupMark) {
	g.chunks, g.n = g.chunks[:m.chunks], m.n
	if m.chunks > 0 {
		g.chunks[m.chunks-1] = g.chunks[m.chunks-1][:m.off]
	}
}

// Reset empties the group. It keeps its first chunks for the next group, up
// to RetainMax bytes of them; the collector frees the rest.
func (g *Group) Reset() {
	all, kept := g.chunks[:cap(g.chunks)], 0
	for i, c := range all {
		if kept += cap(c); kept > RetainMax {
			clear(all[i:])
			break
		}
	}
	g.chunks, g.n, g.null = g.chunks[:0], 0, false
}

// appendFrame completes the group's frame linked to chain in place and
// appends its chunks to dst, returning them with the advanced chain value.
// The group keeps its operations. A payload over MaxRecordSize is refused.
func (g *Group) appendFrame(dst [][]byte, chain Chain) ([][]byte, Chain, error) {
	tail := "]}"
	if g.n == 0 {
		tail = "[]}"
		if g.null {
			tail = "null}"
		}
	}
	last := g.room()
	end := append(g.chunks[last], tail...)
	g.chunks[last] = end[:len(end)-len(tail)]
	out := append(append(dst, g.chunks[:last]...), end)
	frame := chunkList(out[len(dst):])

	size := frame.size() - frameHeaderSize
	if size > MaxRecordSize {
		return dst, chain, fmt.Errorf("%w: %d bytes, limit %d", ErrRecordTooLarge, size, MaxRecordSize)
	}
	head := frame[0][frameHeaderSize:]
	i := copy(head, `{"prev":"`)
	i += hex.Encode(head[i:], chain[:])
	copy(head[i:], `","ops":`)
	crc, h := uint32(0), sha256.New()
	h.Write(chain[:])
	for i, c := range frame {
		if i == 0 {
			c = c[frameHeaderSize:]
		}
		crc = crc32.Update(crc, crcTable, c)
		h.Write(c)
	}
	binary.LittleEndian.PutUint32(frame[0], uint32(size))
	binary.LittleEndian.PutUint32(frame[0][4:], crc)
	var next Chain
	h.Sum(next[:0])
	return out, next, nil
}

// appendOp appends one operation as json.Marshal writes an Op.
func appendOp(dst []byte, op *Op) ([]byte, error) {
	dst = strconv.AppendUint(append(dst, `{"kind":`...), uint64(op.Kind), 10)
	if op.Delta != nil {
		var err error
		if dst, err = graph.AppendDelta(append(dst, `,"delta":`...), op.Delta); err != nil {
			return dst, err
		}
	}
	if op.Resource != "" {
		dst = codec.AppendString(append(dst, `,"resource":`...), op.Resource)
	}
	if op.Owner != 0 {
		dst = strconv.AppendUint(append(dst, `,"owner":`...), uint64(op.Owner), 10)
	}
	if op.RuleID != "" {
		dst = codec.AppendString(append(dst, `,"rule":`...), op.RuleID)
	}
	if len(op.Conditions) > 0 {
		dst = append(dst, `,"conds":[`...)
		for i, c := range op.Conditions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = codec.AppendString(dst, c)
		}
		dst = append(dst, ']')
	}
	if len(op.Policy) > 0 {
		dst = codec.AppendBytes(append(dst, `,"policy":`...), op.Policy)
	}
	return append(dst, '}'), nil
}

// scanFrames walks the framed records in data, calling fn with each
// CRC-verified payload. It returns the length of the valid prefix: the
// offset just past the last frame whose length was sane and whose checksum
// matched. Anything beyond — a short header, a short payload, an absurd
// length or a CRC mismatch — is a torn or corrupt tail. fn returning false
// stops the scan (the returned offset still covers the frame just
// delivered). scanFrames never fails: corruption shortens the prefix.
func scanFrames(data []byte, fn func(payload []byte) bool) (valid int64) {
	off := 0
	for {
		if len(data)-off < frameHeaderSize {
			return int64(off)
		}
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > MaxRecordSize || length > len(data)-off-frameHeaderSize {
			return int64(off)
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+length]
		if crc32.Checksum(payload, crcTable) != crc {
			return int64(off)
		}
		off += frameHeaderSize + length
		if fn != nil && !fn(payload) {
			return int64(off)
		}
	}
}

// decodeChained parses one CRC-verified payload into its operations and,
// for chained envelopes, the recorded previous-chain link. Legacy bare-array
// payloads (pre-chain logs) decode with hasPrev == false: they carry no link
// to check but are still absorbed into the running chain.
func decodeChained(payload []byte) (ops []Op, prev Chain, hasPrev bool, err error) {
	for _, c := range payload {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '[':
			if err := json.Unmarshal(payload, &ops); err != nil {
				return nil, prev, false, fmt.Errorf("wal: undecodable record group: %w", err)
			}
			return ops, prev, false, nil
		}
		break
	}
	env, err := decodeEnvelope(payload)
	if err != nil {
		return nil, prev, false, fmt.Errorf("wal: undecodable record group: %w", err)
	}
	raw, err := hex.DecodeString(env.Prev)
	if err != nil || len(raw) != len(prev) {
		return nil, prev, false, fmt.Errorf("wal: record group carries malformed chain link %q", env.Prev)
	}
	copy(prev[:], raw)
	return env.Ops, prev, true, nil
}

// decodeEnvelope decodes one chained payload, as json.Unmarshal would.
func decodeEnvelope(payload []byte) (groupEnvelope, error) {
	s := codec.NewScanner(payload)
	if env := scanEnvelope(&s); s.End() {
		return env, nil
	}
	var env groupEnvelope
	err := json.Unmarshal(payload, &env)
	return env, err
}

func scanEnvelope(s *codec.Scanner) (env groupEnvelope) {
	s.Object(func(key []byte) uint32 {
		switch string(key) {
		case "prev":
			env.Prev = s.Str()
			return 1
		case "ops":
			env.Ops = []Op{}
			s.Array(func() { env.Ops = append(env.Ops, scanOp(s)) })
			return 2
		}
		return 0
	})
	return env
}

func scanOp(s *codec.Scanner) (op Op) {
	s.Object(func(key []byte) uint32 {
		switch string(key) {
		case "kind":
			op.Kind = OpKind(s.Uint(8))
			return 1
		case "delta":
			op.Delta = graph.ScanDelta(s)
			return 2
		case "resource":
			op.Resource = s.Str()
			return 4
		case "owner":
			op.Owner = graph.NodeID(s.Uint(32))
			return 8
		case "rule":
			op.RuleID = s.Str()
			return 16
		case "conds":
			op.Conditions = s.Strings()
			return 32
		case "policy":
			op.Policy = s.Bytes()
			return 64
		}
		return 0
	})
	return op
}

// decodeGroup parses one CRC-verified payload into its operations, ignoring
// the chain link.
func decodeGroup(payload []byte) ([]Op, error) {
	ops, _, _, err := decodeChained(payload)
	return ops, err
}
