package pathexpr

import (
	"fmt"
	"strings"
	"testing"

	"reachac/internal/graph"
)

func TestParseSingleStepDefaults(t *testing.T) {
	p, err := Parse("friend")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 1 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	s := p.Steps[0]
	if s.Label != "friend" || s.Dir != Both || s.MinDepth != 1 || s.MaxDepth != 1 || s.Unbounded {
		t.Fatalf("defaults wrong: %+v", s)
	}
}

func TestParsePaperQueryQ1(t *testing.T) {
	// Figure 2: Alice/friend+[1,2]/colleague+[1].
	p, err := Parse("friend+[1,2]/colleague+[1]")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 2 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	f := p.Steps[0]
	if f.Label != "friend" || f.Dir != Out || f.MinDepth != 1 || f.MaxDepth != 2 {
		t.Fatalf("friend step = %+v", f)
	}
	c := p.Steps[1]
	if c.Label != "colleague" || c.Dir != Out || c.MinDepth != 1 || c.MaxDepth != 1 {
		t.Fatalf("colleague step = %+v", c)
	}
}

func TestParseDirections(t *testing.T) {
	cases := map[string]Direction{
		"friend+": Out,
		"friend-": In,
		"friend*": Both,
		"friend":  Both,
	}
	for in, want := range cases {
		p, err := Parse(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if p.Steps[0].Dir != want {
			t.Errorf("%q: dir = %v, want %v", in, p.Steps[0].Dir, want)
		}
	}
}

func TestParseUnboundedDepth(t *testing.T) {
	p, err := Parse("friend+[2,*]")
	if err != nil {
		t.Fatal(err)
	}
	s := p.Steps[0]
	if !s.Unbounded || s.MinDepth != 2 {
		t.Fatalf("unbounded step = %+v", s)
	}
}

func TestParsePredicates(t *testing.T) {
	p, err := Parse(`friend+[1]{age>=18, city="paris", vip=true, score<0.5, name!=bob}`)
	if err != nil {
		t.Fatal(err)
	}
	preds := p.Steps[0].Preds
	if len(preds) != 5 {
		t.Fatalf("preds = %d", len(preds))
	}
	if preds[0].Attr != "age" || preds[0].Op != OpGe || preds[0].Value.Num() != 18 {
		t.Fatalf("pred[0] = %+v", preds[0])
	}
	if preds[1].Value.Str() != "paris" {
		t.Fatalf("pred[1] = %+v", preds[1])
	}
	if preds[2].Value.Kind() != graph.KindBool || !preds[2].Value.B() {
		t.Fatalf("pred[2] = %+v", preds[2])
	}
	if preds[3].Op != OpLt || preds[3].Value.Num() != 0.5 {
		t.Fatalf("pred[3] = %+v", preds[3])
	}
	if preds[4].Op != OpNe || preds[4].Value.Str() != "bob" {
		t.Fatalf("pred[4] = %+v", preds[4])
	}
}

func TestParseWhitespaceTolerance(t *testing.T) {
	p, err := Parse("  friend + [ 1 , 2 ] / colleague - [ 3 ] { age > 21 }  ")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 2 || p.Steps[1].Dir != In || p.Steps[1].MinDepth != 3 {
		t.Fatalf("parsed = %+v", p)
	}
}

func TestParseSingleQuoteStringsAndEscapes(t *testing.T) {
	p, err := Parse(`friend{name='O\'Brien'}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Steps[0].Preds[0].Value.Str(); got != "O'Brien" {
		t.Fatalf("escaped string = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"/friend",
		"friend/",
		"friend//colleague",
		"friend+[0]",     // depth < 1
		"friend+[3,2]",   // empty interval
		"friend+[1,2",    // unclosed bracket
		"friend{age>18",  // unclosed brace
		"friend{>18}",    // missing attribute
		"friend{age 18}", // missing operator
		"friend{age>}",   // missing value
		"friend$",        // bad character
		"friend+[a,b]",   // non-integer depth
		"friend friend",  // trailing input
		"friend{name=\"unterminated",
		"friend{age!18}", // lone '!'
		"123",            // label must be identifier
		"friend+[1.5]",   // non-integer depth
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted invalid input", in)
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("friend+[1,2")
	if err == nil {
		t.Fatal("no error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Input != "friend+[1,2" || !strings.Contains(se.Error(), "offset") {
		t.Fatalf("error = %v", se)
	}
}

func TestStringRoundTrip(t *testing.T) {
	cases := []string{
		"friend+[1,2]/colleague+[1]",
		"friend*[1]",
		"parent-[2,*]",
		`friend+[1]{age>=18, city="paris"}`,
		"friend+[1]/parent+[1]/friend+[1]",
		"follows+[3,7]",
	}
	for _, in := range cases {
		p1 := MustParse(in)
		s := p1.String()
		p2, err := Parse(s)
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", s, in, err)
		}
		if s2 := p2.String(); s2 != s {
			t.Errorf("round trip %q -> %q -> %q", in, s, s2)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("///")
}

func TestValidateDirect(t *testing.T) {
	bad := []*Path{
		{},
		{Steps: []Step{{Label: "", MinDepth: 1, MaxDepth: 1}}},
		{Steps: []Step{{Label: "f", MinDepth: 0, MaxDepth: 1}}},
		{Steps: []Step{{Label: "f", MinDepth: 2, MaxDepth: 1}}},
		{Steps: []Step{{Label: "f", MinDepth: 1, MaxDepth: 1, Preds: []Pred{{Attr: ""}}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
}

func TestMinMaxLen(t *testing.T) {
	p := MustParse("friend+[1,2]/colleague+[3]/parent+[2,*]")
	if got := p.MinLen(); got != 6 {
		t.Fatalf("MinLen = %d, want 6", got)
	}
	if got := p.MaxLen(10); got != 15 {
		t.Fatalf("MaxLen(10) = %d, want 15", got)
	}
}

// TestStepRules pins the step semantics every product search reads: for
// each depth d, whether the step may close or continue after d edges, d's
// canonical key, and the count of canonical depths a state can hold. Every
// state a search keeps — d = 0, or a key reached by continuing — must fall
// below that count.
func TestStepRules(t *testing.T) {
	for _, tc := range []struct {
		expr             string
		close, cont, key string // per d = 0..5
		depths           int
	}{
		{"friend+[1]", "011111", "100000", "012345", 1},
		{"friend+[2,4]", "001111", "111100", "012345", 4},
		{"friend+[1,*]", "011111", "111111", "011111", 2},
		{"friend+[3,*]", "000111", "111111", "012333", 4},
	} {
		st := MustParse(tc.expr).Steps[0]
		for d := 0; d <= 5; d++ {
			got := fmt.Sprintf("%d%d%d", boolDigit(st.MayClose(d)), boolDigit(st.MayContinue(d)), st.DKey(d))
			want := string([]byte{tc.close[d], tc.cont[d], tc.key[d]})
			if got != want {
				t.Errorf("%s at d=%d: close, continue, key = %s, want %s", tc.expr, d, got, want)
			}
			if (d == 0 || st.MayContinue(d)) && st.DKey(d) >= st.Depths() {
				t.Errorf("%s: kept state at d=%d has key %d beyond Depths %d", tc.expr, d, st.DKey(d), st.Depths())
			}
		}
		if st.Depths() != tc.depths {
			t.Errorf("%s: Depths = %d, want %d", tc.expr, st.Depths(), tc.depths)
		}
	}
}

func boolDigit(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestHasPreds(t *testing.T) {
	if MustParse("friend/colleague").HasPreds() {
		t.Fatal("HasPreds false positive")
	}
	if !MustParse("friend/colleague{age>1}").HasPreds() {
		t.Fatal("HasPreds false negative")
	}
}

func TestClone(t *testing.T) {
	p := MustParse(`friend+[1]{age>=18}`)
	c := p.Clone()
	c.Steps[0].Preds[0].Attr = "mutated"
	c.Steps[0].Label = "other"
	if p.Steps[0].Preds[0].Attr != "age" || p.Steps[0].Label != "friend" {
		t.Fatal("Clone aliases the original")
	}
}

// TestParsedPathCarriesCanonicalText: String on a parsed path returns the
// text rendered at parse time — the same for every spelling of an expression,
// equal to what a structurally equal hand-built path renders, and free —
// while a clone renders afresh, so that changing it changes its text.
func TestParsedPathCarriesCanonicalText(t *testing.T) {
	p := MustParse(`friend +[1, 2] / colleague{age>=18,city="paris"}`)
	const want = `friend+[1,2]/colleague*[1]{age>=18, city="paris"}`
	if got := p.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := MustParse(want).String(); got != want {
		t.Fatalf("canonical text does not parse back to itself: %q", got)
	}
	if got := (&Path{Steps: p.Steps}).String(); got != want {
		t.Fatalf("hand-built path renders %q, want %q", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = p.String() }); allocs != 0 {
		t.Fatalf("String on a parsed path allocates %.0f objects, want 0", allocs)
	}
	c := p.Clone()
	c.Steps[0].Label = "other"
	if got := c.String(); got == want || p.String() != want {
		t.Fatalf("after changing a clone: clone %q, original %q", got, p.String())
	}
}

func TestPredEval(t *testing.T) {
	attrs := graph.Attrs{
		"age":  graph.Int(24),
		"city": graph.String("paris"),
		"vip":  graph.Bool(true),
	}
	cases := []struct {
		pred string
		want bool
	}{
		{"age>=18", true},
		{"age>24", false},
		{"age<25", true},
		{"age<=24", true},
		{"age=24", true},
		{"age!=24", false},
		{"age!=25", true},
		{`city="paris"`, true},
		{`city!="rome"`, true},
		{`city<"q"`, true},
		{"vip=true", true},
		{"vip=false", false},
		{"missing=1", false}, // absent attribute
		{`age="24"`, false},  // kind mismatch on equality
		{"city>3", false},    // kind mismatch on compare
		{`age!="x"`, false},  // cross-kind disequality is not satisfied
		{"vip!=false", true}, // bool disequality
	}
	for _, c := range cases {
		p := MustParse("friend{" + c.pred + "}")
		if got := p.Steps[0].Preds[0].Eval(attrs); got != c.want {
			t.Errorf("Eval(%s) = %v, want %v", c.pred, got, c.want)
		}
	}
}

func TestDirectionAndOpStrings(t *testing.T) {
	if Out.String() != "+" || In.String() != "-" || Both.String() != "*" {
		t.Fatal("Direction strings")
	}
	ops := map[Op]string{OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("Op %d String = %q, want %q", op, op.String(), want)
		}
	}
}
