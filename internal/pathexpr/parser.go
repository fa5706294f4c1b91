package pathexpr

import (
	"strconv"

	"reachac/internal/graph"
)

// Parse parses the concrete path syntax into a validated Path carrying its
// canonical text (see Path).
func Parse(input string) (*Path, error) {
	p := &parser{lex: lexer{input: input}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	path, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if err := path.Validate(); err != nil {
		return nil, err
	}
	path.canon = path.render()
	return path, nil
}

// MustParse is Parse for fixtures and tests; it panics on error.
func MustParse(input string) *Path {
	p, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	lex lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if p.tok.kind != kind {
		return token{}, p.lex.errorf(p.tok.pos, "expected %s, found %s", kind, p.tok.kind)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) parsePath() (*Path, error) {
	path := &Path{}
	for {
		step, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, step)
		if p.tok.kind != tokSlash {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokEOF {
		return nil, p.lex.errorf(p.tok.pos, "trailing input: found %s", p.tok.kind)
	}
	return path, nil
}

func (p *parser) parseStep() (Step, error) {
	label, err := p.expect(tokIdent)
	if err != nil {
		return Step{}, err
	}
	step := Step{Label: label.text, Dir: Both, MinDepth: 1, MaxDepth: 1}

	switch p.tok.kind {
	case tokPlus:
		step.Dir = Out
		if err := p.advance(); err != nil {
			return Step{}, err
		}
	case tokMinus:
		step.Dir = In
		if err := p.advance(); err != nil {
			return Step{}, err
		}
	case tokStar:
		step.Dir = Both
		if err := p.advance(); err != nil {
			return Step{}, err
		}
	}

	if p.tok.kind == tokLBracket {
		if err := p.parseDepth(&step); err != nil {
			return Step{}, err
		}
	}
	if p.tok.kind == tokLBrace {
		if err := p.parsePreds(&step); err != nil {
			return Step{}, err
		}
	}
	return step, nil
}

func (p *parser) parseDepth(step *Step) error {
	if err := p.advance(); err != nil { // consume '['
		return err
	}
	lo, err := p.parseInt()
	if err != nil {
		return err
	}
	step.MinDepth, step.MaxDepth = lo, lo
	if p.tok.kind == tokComma {
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind == tokStar {
			step.Unbounded = true
			step.MaxDepth = 0
			if err := p.advance(); err != nil {
				return err
			}
		} else {
			hi, err := p.parseInt()
			if err != nil {
				return err
			}
			step.MaxDepth = hi
		}
	}
	_, err = p.expect(tokRBracket)
	return err
}

func (p *parser) parseInt() (int, error) {
	t, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.lex.errorf(t.pos, "bad integer %q", t.text)
	}
	return n, nil
}

func (p *parser) parsePreds(step *Step) error {
	if err := p.advance(); err != nil { // consume '{'
		return err
	}
	for {
		pred, err := p.parsePred()
		if err != nil {
			return err
		}
		step.Preds = append(step.Preds, pred)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return err
			}
			continue
		}
		break
	}
	_, err := p.expect(tokRBrace)
	return err
}

func (p *parser) parsePred() (Pred, error) {
	attr, err := p.expect(tokIdent)
	if err != nil {
		return Pred{}, err
	}
	opTok, err := p.expect(tokOp)
	if err != nil {
		return Pred{}, err
	}
	var op Op
	switch opTok.text {
	case "=":
		op = OpEq
	case "!=":
		op = OpNe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	}
	val, err := p.parseValue()
	if err != nil {
		return Pred{}, err
	}
	return Pred{Attr: attr.text, Op: op, Value: val}, nil
}

func (p *parser) parseValue() (graph.Value, error) {
	switch p.tok.kind {
	case tokNumber:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return graph.Value{}, p.lex.errorf(p.tok.pos, "bad number %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return graph.Value{}, err
		}
		return graph.Number(f), nil
	case tokString:
		s := p.tok.text
		if err := p.advance(); err != nil {
			return graph.Value{}, err
		}
		return graph.String(s), nil
	case tokIdent:
		s := p.tok.text
		if err := p.advance(); err != nil {
			return graph.Value{}, err
		}
		switch s {
		case "true":
			return graph.Bool(true), nil
		case "false":
			return graph.Bool(false), nil
		}
		return graph.String(s), nil
	default:
		return graph.Value{}, p.lex.errorf(p.tok.pos, "expected value, found %s", p.tok.kind)
	}
}
