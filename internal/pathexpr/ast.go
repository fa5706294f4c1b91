// Package pathexpr implements the reachability-constraint language of the
// access control model (Definition 3). An access condition's path
//
//	p = s1/s2/.../sn
//
// is a sequence of ordered steps; each step si = (r, dir, I, C) carries a
// relationship label r, an edge orientation dir, a set of authorized depth
// levels I (a contiguous interval here, possibly unbounded), and a set of
// conditions C on the attributes of the user reached at the end of the step.
//
// Concrete syntax (Figure 2 style):
//
//	friend+[1,2]/colleague+[1]{age>=18, city="paris"}
//
//	step   = label dir? depth? preds?
//	dir    = '+' (outgoing) | '-' (incoming) | '*' (either, the default)
//	depth  = '[' lo ']' | '[' lo ',' hi ']' | '[' lo ',' '*' ']'   (default [1,1])
//	preds  = '{' pred (',' pred)* '}'
//	pred   = attr op value;  op in = != < <= > >=
//	value  = number | "string" | 'string' | true | false | bareword
package pathexpr

import (
	"fmt"
	"strconv"
	"strings"

	"reachac/internal/graph"
)

// Direction is a step's authorized edge orientation (the paper's dir with
// values +, -, and the default * meaning both).
type Direction uint8

// Step orientations.
const (
	Out  Direction = iota // '+': relationship must be outgoing (owner side -> requester side)
	In                    // '-': relationship must be incoming
	Both                  // '*': either orientation is authorized (paper's default)
)

// String returns the direction's surface syntax ('+', '-' or '*').
func (d Direction) String() string {
	switch d {
	case Out:
		return "+"
	case In:
		return "-"
	default:
		return "*"
	}
}

// Op is a comparison operator in an attribute predicate.
type Op uint8

// Predicate operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the comparison operator's surface syntax.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	default:
		return ">="
	}
}

// Pred is one condition cᵢ on user properties: attr op value.
type Pred struct {
	Attr  string
	Op    Op
	Value graph.Value
}

// Eval applies the predicate to a node's attribute tuple. A missing
// attribute or a cross-kind comparison evaluates to false (never an error:
// policies must be total).
func (p Pred) Eval(attrs graph.Attrs) bool {
	v, ok := attrs.Get(p.Attr)
	if !ok {
		return false
	}
	switch p.Op {
	case OpEq:
		return v.Equal(p.Value)
	case OpNe:
		// Same-kind disequality; cross-kind != is true by Equal semantics
		// but we require comparable kinds for a meaningful predicate.
		return v.Kind() == p.Value.Kind() && !v.Equal(p.Value)
	}
	c, err := v.Compare(p.Value)
	if err != nil {
		return false
	}
	switch p.Op {
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// String renders the predicate in concrete syntax. String values are quoted
// with the lexer's own escape rules (backslash escapes the next byte, any
// byte content allowed), so that String/Parse round-trips exactly.
func (p Pred) String() string {
	var b strings.Builder
	p.render(&b)
	return b.String()
}

func (p Pred) render(b *strings.Builder) {
	b.WriteString(p.Attr)
	b.WriteString(p.Op.String())
	v := p.Value.String()
	if p.Value.Kind() != graph.KindString {
		b.WriteString(v)
		return
	}
	b.WriteByte('"')
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c == '"' || c == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(c)
	}
	b.WriteByte('"')
}

// Step is one ordered step (r, dir, I, C) of a path.
type Step struct {
	Label     string
	Dir       Direction
	MinDepth  int  // lowest authorized depth (>= 1)
	MaxDepth  int  // highest authorized depth; ignored when Unbounded
	Unbounded bool // true for [lo,*]
	Preds     []Pred
}

// The four rules below are the step's semantics in a product search over
// G × the path's steps, whose state is (node, step, d) with d the edges
// consumed within the step so far. Every search in the repository reads them
// from here.

// MayClose reports whether the step is complete after d edges.
func (s *Step) MayClose(d int) bool { return d >= s.MinDepth }

// MayContinue reports whether, after d edges, the step may consume another.
func (s *Step) MayContinue(d int) bool { return s.Unbounded || d < s.MaxDepth }

// DKey canonicalizes d: for an unbounded step every depth at or above
// MinDepth behaves alike (the step may close, and may always continue), so
// those depths collapse to MinDepth. This keeps the state space finite.
func (s *Step) DKey(d int) int {
	if s.Unbounded && d > s.MinDepth {
		return s.MinDepth
	}
	return d
}

// Depths returns how many canonical depths a search state within the step
// can hold. A state is kept only while the step may continue, so a bounded
// step's states hold d in [0, MaxDepth), and an unbounded step's, after
// DKey, d in [0, MinDepth].
func (s *Step) Depths() int {
	if s.Unbounded {
		return s.MinDepth + 1
	}
	return s.MaxDepth
}

// String renders the step in concrete syntax. The depth suffix is always
// printed so that round-trips are exact.
func (s Step) String() string {
	var b strings.Builder
	s.render(&b)
	return b.String()
}

func (s Step) render(b *strings.Builder) {
	b.WriteString(s.Label)
	b.WriteString(s.Dir.String())
	b.WriteByte('[')
	b.WriteString(strconv.Itoa(s.MinDepth))
	if s.Unbounded {
		b.WriteString(",*")
	} else if s.MinDepth != s.MaxDepth {
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(s.MaxDepth))
	}
	b.WriteByte(']')
	if len(s.Preds) > 0 {
		b.WriteByte('{')
		for i, p := range s.Preds {
			if i > 0 {
				b.WriteString(", ")
			}
			p.render(b)
		}
		b.WriteByte('}')
	}
}

// Path is a parsed reachability constraint: the ordered sequence of steps
// that must link the resource owner to the requester.
//
// A Path returned by Parse is immutable: it carries its canonical text, which
// is what String returns and what identifies the expression to the engines'
// plan caches. To derive a different expression, Clone it and change the
// clone.
type Path struct {
	Steps []Step
	// canon is the canonical text, rendered once by Parse. Paths built any
	// other way leave it empty and render on every String call.
	canon string
}

// String renders the path in concrete syntax; Parse(p.String()) == p. Two
// paths are structurally equal exactly when their String results are. On a
// parsed path it returns the text cached at parse time, without allocating.
func (p *Path) String() string {
	if p.canon != "" {
		return p.canon
	}
	return p.render()
}

func (p *Path) render() string {
	var b strings.Builder
	size := 0
	for _, s := range p.Steps {
		size += len(s.Label) + len("+[1,2]/") + 16*len(s.Preds)
	}
	b.Grow(size)
	for i, s := range p.Steps {
		if i > 0 {
			b.WriteByte('/')
		}
		s.render(&b)
	}
	return b.String()
}

// Validate checks structural sanity: at least one step, positive depths,
// lo <= hi, non-empty labels and attribute names.
func (p *Path) Validate() error {
	if len(p.Steps) == 0 {
		return fmt.Errorf("pathexpr: empty path")
	}
	for i, s := range p.Steps {
		if s.Label == "" {
			return fmt.Errorf("pathexpr: step %d has empty label", i+1)
		}
		if s.MinDepth < 1 {
			return fmt.Errorf("pathexpr: step %d min depth %d < 1", i+1, s.MinDepth)
		}
		if !s.Unbounded && s.MaxDepth < s.MinDepth {
			return fmt.Errorf("pathexpr: step %d depth interval [%d,%d] empty", i+1, s.MinDepth, s.MaxDepth)
		}
		for _, pr := range s.Preds {
			if pr.Attr == "" {
				return fmt.Errorf("pathexpr: step %d has predicate with empty attribute", i+1)
			}
		}
	}
	return nil
}

// MinLen returns the minimum number of edges a matching path uses.
func (p *Path) MinLen() int {
	n := 0
	for _, s := range p.Steps {
		n += s.MinDepth
	}
	return n
}

// MaxLen returns the maximum number of edges a matching path may use, with
// unbounded steps capped at cap edges each.
func (p *Path) MaxLen(cap int) int {
	n := 0
	for _, s := range p.Steps {
		if s.Unbounded {
			n += cap
		} else {
			n += s.MaxDepth
		}
	}
	return n
}

// HasPreds reports whether any step carries attribute predicates.
func (p *Path) HasPreds() bool {
	for _, s := range p.Steps {
		if len(s.Preds) > 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy, which the caller may modify.
func (p *Path) Clone() *Path {
	steps := make([]Step, len(p.Steps))
	copy(steps, p.Steps)
	for i := range steps {
		steps[i].Preds = append([]Pred(nil), p.Steps[i].Preds...)
	}
	return &Path{Steps: steps}
}
