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

// encodeFrame appends the framed serialization of one record group to buf,
// linking it to chain and returning the advanced chain value. On error buf
// comes back at its original length.
func encodeFrame(buf []byte, chain Chain, ops []Op) ([]byte, Chain, error) {
	start := len(buf)
	buf, err := appendGroup(append(buf, make([]byte, frameHeaderSize)...), chain, ops)
	if err != nil {
		return buf[:start], chain, err
	}
	payload := buf[start+frameHeaderSize:]
	if len(payload) > MaxRecordSize {
		return buf[:start], chain, fmt.Errorf("%w: %d bytes, limit %d", ErrRecordTooLarge, len(payload), MaxRecordSize)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf, chainNext(chain, payload), nil
}

// appendGroup appends the envelope of one record group linked to chain, as
// json.Marshal writes a groupEnvelope.
func appendGroup(dst []byte, chain Chain, ops []Op) ([]byte, error) {
	dst = hex.AppendEncode(append(dst, `{"prev":"`...), chain[:])
	if ops == nil {
		return append(dst, `","ops":null}`...), nil
	}
	dst = append(dst, `","ops":[`...)
	for i := range ops {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendOp(dst, &ops[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
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
