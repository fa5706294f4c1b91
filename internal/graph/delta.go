package graph

import (
	"fmt"
	"strconv"

	"reachac/internal/codec"
)

// DeltaOp is the kind of one recorded structural mutation.
type DeltaOp uint8

// Delta operations: the structural mutations, each of which bumps the
// version counter. A node's attributes are fixed when it is added.
const (
	// OpAddNode records an AddNode call.
	OpAddNode DeltaOp = iota
	// OpAddEdge records an AddEdge/AddWeightedEdge call.
	OpAddEdge
	// OpRemoveEdge records a RemoveEdge call. The edge is identified by
	// (From, To, Label) rather than EdgeID, because a rebase renumbers
	// edges.
	OpRemoveEdge
)

func (op DeltaOp) String() string {
	switch op {
	case OpAddNode:
		return "add-node"
	case OpAddEdge:
		return "add-edge"
	case OpRemoveEdge:
		return "remove-edge"
	default:
		return fmt.Sprintf("DeltaOp(%d)", uint8(op))
	}
}

// Delta is one recorded structural mutation. Deltas are expressed in terms
// stable across rebases: node IDs (never reused), label names and endpoint
// pairs — never EdgeIDs, which a rebase renumbers. The JSON tags define the
// WAL's structural record payload; every field's zero value round-trips, so
// omitempty is lossless.
type Delta struct {
	Op DeltaOp `json:"op"`
	// Name and Attrs describe an OpAddNode. Attrs is shared with the live
	// node, and Apply shares it too: attributes never change.
	Name  string `json:"name,omitempty"`
	Attrs Attrs  `json:"attrs,omitempty"`
	// From, To, Label and Weight describe an edge for OpAddEdge and
	// OpRemoveEdge (Weight is OpAddEdge-only).
	From   NodeID  `json:"from,omitempty"`
	To     NodeID  `json:"to,omitempty"`
	Label  string  `json:"label,omitempty"`
	Weight float64 `json:"weight,omitempty"`
}

// AppendDelta appends d's JSON to dst, as json.Marshal writes it.
func AppendDelta(dst []byte, d *Delta) ([]byte, error) {
	var err error
	dst = strconv.AppendUint(append(dst, `{"op":`...), uint64(d.Op), 10)
	if d.Name != "" {
		dst = codec.AppendString(append(dst, `,"name":`...), d.Name)
	}
	if len(d.Attrs) > 0 {
		if dst, err = appendAttrs(append(dst, `,"attrs":`...), d.Attrs); err != nil {
			return dst, err
		}
	}
	if d.From != 0 {
		dst = strconv.AppendUint(append(dst, `,"from":`...), uint64(d.From), 10)
	}
	if d.To != 0 {
		dst = strconv.AppendUint(append(dst, `,"to":`...), uint64(d.To), 10)
	}
	if d.Label != "" {
		dst = codec.AppendString(append(dst, `,"label":`...), d.Label)
	}
	if d.Weight != 0 {
		if dst, err = codec.AppendFloat(append(dst, `,"weight":`...), d.Weight); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// ScanDelta reads one delta written by AppendDelta.
func ScanDelta(s *codec.Scanner) *Delta {
	d := new(Delta)
	s.Object(func(key []byte) uint32 {
		switch string(key) {
		case "op":
			d.Op = DeltaOp(s.Uint(8))
			return 1
		case "name":
			d.Name = s.Str()
			return 2
		case "attrs":
			d.Attrs = scanAttrs(s)
			return 4
		case "from":
			d.From = NodeID(s.Uint(32))
			return 8
		case "to":
			d.To = NodeID(s.Uint(32))
			return 16
		case "label":
			d.Label = s.Str()
			return 32
		case "weight":
			d.Weight = s.Float()
			return 64
		}
		return 0
	})
	return d
}

// DefaultDeltaLogLimit is the default bound on the retained delta window.
// The log may transiently hold up to twice this many entries (trimming is
// amortized), so ChangesSince can serve any version within at least the last
// DefaultDeltaLogLimit mutations.
const DefaultDeltaLogLimit = 4096

// SetDeltaLogLimit bounds the retained delta window to at least limit
// mutations (0 keeps the current limit; negative disables logging entirely,
// forcing every snapshot advance down the rebuild path). Shrinking the
// window drops the oldest entries immediately.
func (g *Graph) SetDeltaLogLimit(limit int) {
	if limit == 0 {
		return
	}
	g.deltaLimit = limit
	if limit < 0 {
		g.deltas = nil
		g.deltaBase = g.version.Load()
		return
	}
	g.trimDeltas()
}

// record appends one delta after its mutation bumped the version counter,
// preserving the invariant len(deltas) == Version() - deltaBase.
func (g *Graph) record(d Delta) {
	if g.deltaLimit < 0 {
		g.deltaBase = g.version.Load()
		return
	}
	g.deltas = append(g.deltas, d)
	g.trimDeltas()
}

// trimDeltas drops the oldest entries once the log exceeds twice its limit,
// keeping trims amortized O(1) per mutation while always retaining at least
// deltaLimit entries.
func (g *Graph) trimDeltas() {
	limit := g.deltaLimit
	if limit <= 0 {
		limit = DefaultDeltaLogLimit
	}
	if len(g.deltas) <= 2*limit {
		return
	}
	drop := len(g.deltas) - limit
	g.deltaBase += uint64(drop)
	g.deltas = append(g.deltas[:0], g.deltas[drop:]...)
}

// DropChanges empties the delta log: ChangesSince serves the current
// version alone until the next mutation. It is for an owner that knows no
// clone will be advanced from an earlier version, as after a rebase of a
// graph whose clones advance only while they share its base.
func (g *Graph) DropChanges() {
	g.deltas = nil
	g.deltaBase = g.version.Load()
}

// ChangesSince returns the deltas that advance the graph from the given
// version to its current version, oldest first. ok is false when the window
// no longer reaches back that far (or version is from the future), in which
// case the caller must fall back to a Clone. The returned slice is a
// copy. Like all mutating/bulk accessors it requires external
// synchronization with mutators; only Version itself is lock-free.
func (g *Graph) ChangesSince(version uint64) (deltas []Delta, ok bool) {
	if !g.Covers(version) {
		return nil, false
	}
	if version == g.version.Load() {
		return nil, true
	}
	return append([]Delta(nil), g.deltas[version-g.deltaBase:]...), true
}

// Covers reports whether ChangesSince(version) would succeed — version is
// the current one, or one the delta window still reaches back to — without
// copying anything. It needs the same external synchronization.
func (g *Graph) Covers(version uint64) bool {
	cur := g.version.Load()
	return version == cur || (version < cur && version >= g.deltaBase)
}

// Apply replays one recorded delta onto g — typically a private clone being
// fast-forwarded to a newer version instead of being re-cloned from scratch.
// Deltas must be applied in the order ChangesSince returned them; an error
// means the clone has diverged from the log and must be discarded.
func (g *Graph) Apply(d Delta) error {
	switch d.Op {
	case OpAddNode:
		_, err := g.AddNode(d.Name, d.Attrs)
		return err
	case OpAddEdge:
		_, err := g.AddWeightedEdge(d.From, d.To, d.Label, d.Weight)
		return err
	case OpRemoveEdge:
		l, ok := g.labels.lookup(d.Label)
		if !ok {
			return fmt.Errorf("graph: apply remove-edge: unknown label %q", d.Label)
		}
		e := g.FindEdge(d.From, d.To, l)
		if e == InvalidEdge {
			return fmt.Errorf("graph: apply remove-edge: no %s edge %d -> %d", d.Label, d.From, d.To)
		}
		return g.RemoveEdge(e)
	default:
		return fmt.Errorf("graph: unknown delta op %d", uint8(d.Op))
	}
}
