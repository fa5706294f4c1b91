package graph

import "testing"

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{String("hi"), KindString, "hi"},
		{Number(2.5), KindNumber, "2.5"},
		{Int(7), KindNumber, "7"},
		{Bool(true), KindBool, "true"},
		{Value{}, KindString, ""},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v Kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("%v String = %q, want %q", c.v, c.v.String(), c.str)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindString.String() != "string" || KindNumber.String() != "number" || KindBool.String() != "bool" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Fatalf("unknown kind = %q", Kind(42).String())
	}
}

func TestValueEqual(t *testing.T) {
	if !String("x").Equal(String("x")) {
		t.Fatal("equal strings not Equal")
	}
	if String("x").Equal(String("y")) {
		t.Fatal("distinct strings Equal")
	}
	if String("1").Equal(Number(1)) {
		t.Fatal("cross-kind Equal")
	}
	if !Int(3).Equal(Number(3)) {
		t.Fatal("Int/Number not Equal")
	}
	if !Bool(false).Equal(Bool(false)) {
		t.Fatal("bools not Equal")
	}
	if Bool(false).Equal(Bool(true)) {
		t.Fatal("distinct bools Equal")
	}
}

func TestValueCompare(t *testing.T) {
	lt := func(a, b Value) {
		t.Helper()
		c, err := a.Compare(b)
		if err != nil || c != -1 {
			t.Fatalf("Compare(%v,%v) = %d,%v want -1", a, b, c, err)
		}
		c, err = b.Compare(a)
		if err != nil || c != 1 {
			t.Fatalf("Compare(%v,%v) = %d,%v want 1", b, a, c, err)
		}
	}
	lt(Int(1), Int(2))
	lt(String("a"), String("b"))
	lt(Bool(false), Bool(true))
	if c, err := Int(5).Compare(Int(5)); err != nil || c != 0 {
		t.Fatalf("equal compare = %d,%v", c, err)
	}
	if c, err := Bool(true).Compare(Bool(true)); err != nil || c != 0 {
		t.Fatalf("equal bool compare = %d,%v", c, err)
	}
	if _, err := Int(1).Compare(String("1")); err == nil {
		t.Fatal("cross-kind Compare accepted")
	}
}

func TestAttrsGetAndKeys(t *testing.T) {
	var nilAttrs Attrs
	if _, ok := nilAttrs.Get("x"); ok {
		t.Fatal("nil Attrs Get found something")
	}
	a := Attrs{"b": Int(1), "a": String("s")}
	keys := a.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestAttrsString(t *testing.T) {
	a := Attrs{"gender": String("female"), "age": Int(24)}
	if got := a.String(); got != "(age=24, gender=female)" {
		t.Fatalf("Attrs.String = %q", got)
	}
	if got := (Attrs{}).String(); got != "()" {
		t.Fatalf("empty Attrs.String = %q", got)
	}
}
