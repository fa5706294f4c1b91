package graph

import (
	"fmt"
	"sort"
	"strconv"
)

// Kind enumerates the dynamic types an attribute value may take.
type Kind uint8

// Attribute value kinds.
const (
	KindString Kind = iota
	KindNumber
	KindBool
)

// String names the value kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindNumber:
		return "number"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a tagged union holding a single attribute value. The zero Value is
// the empty string.
type Value struct {
	kind Kind
	str  string
	num  float64
	b    bool
}

// String returns a Value of kind KindString.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Number returns a Value of kind KindNumber.
func Number(f float64) Value { return Value{kind: KindNumber, num: f} }

// Int returns a numeric Value from an int.
func Int(i int) Value { return Number(float64(i)) }

// Bool returns a Value of kind KindBool.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// Str returns the string payload (valid when Kind()==KindString).
func (v Value) Str() string { return v.str }

// Num returns the numeric payload (valid when Kind()==KindNumber).
func (v Value) Num() float64 { return v.num }

// B returns the boolean payload (valid when Kind()==KindBool).
func (v Value) B() bool { return v.b }

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.str == o.str
	case KindNumber:
		return v.num == o.num
	default:
		return v.b == o.b
	}
}

// Compare orders two values of the same kind: -1, 0, +1. It returns an error
// when the kinds differ or the kind is not ordered (bool supports only
// equality, which Compare reports as 0 / non-zero).
func (v Value) Compare(o Value) (int, error) {
	if v.kind != o.kind {
		return 0, fmt.Errorf("graph: cannot compare %s with %s", v.kind, o.kind)
	}
	switch v.kind {
	case KindString:
		switch {
		case v.str < o.str:
			return -1, nil
		case v.str > o.str:
			return 1, nil
		}
		return 0, nil
	case KindNumber:
		switch {
		case v.num < o.num:
			return -1, nil
		case v.num > o.num:
			return 1, nil
		}
		return 0, nil
	default:
		if v.b == o.b {
			return 0, nil
		}
		if !v.b {
			return -1, nil
		}
		return 1, nil
	}
}

// String renders the value for display and serialization.
func (v Value) String() string {
	switch v.kind {
	case KindString:
		return v.str
	case KindNumber:
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	default:
		return strconv.FormatBool(v.b)
	}
}

// Attrs is the attribute tuple λ(v) attached to a node: a set of named
// values such as (gender=female, age=24). A nil Attrs behaves as empty.
type Attrs map[string]Value

// Get returns the value for key and whether it is present.
func (a Attrs) Get(key string) (Value, bool) {
	v, ok := a[key]
	return v, ok
}

// Keys returns the attribute names in sorted order, for deterministic
// rendering.
func (a Attrs) Keys() []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders the tuple in the paper's style: (k1=v1, k2=v2).
func (a Attrs) String() string {
	s := "("
	for i, k := range a.Keys() {
		if i > 0 {
			s += ", "
		}
		s += k + "=" + a[k].String()
	}
	return s + ")"
}
