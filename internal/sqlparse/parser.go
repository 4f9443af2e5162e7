package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"asqprl/internal/table"
)

// Parse parses a single SELECT statement.
func Parse(sql string) (*Select, error) {
	toks := lex(sql)
	if last := toks[len(toks)-1]; last.kind == tokError {
		return nil, fmt.Errorf("sqlparse: %s", last.text)
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, fmt.Errorf("sqlparse: %w", err)
	}
	// Allow an optional trailing semicolon.
	if p.peek().kind == tokOp && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sqlparse: unexpected trailing input %q at offset %d", p.peek().text, p.peek().pos)
	}
	height := 0
	stmt.eachExpr(func(e Expr) { height = max(height, exprHeight(e)) })
	if height > maxExprDepth {
		return nil, fmt.Errorf("sqlparse: an expression is %d levels high, over the limit of %d", height, maxExprDepth)
	}
	return stmt, nil
}

// MustParse parses sql and panics on error. It is intended for tests and
// literal workload definitions.
func MustParse(sql string) *Select {
	s, err := Parse(sql)
	if err != nil {
		panic(err)
	}
	return s
}

type parser struct {
	toks  []token
	pos   int
	depth int // recursion depth of the expression being parsed; see nest
}

// maxExprDepth bounds how deep an expression nests. A statement is network
// input: without the bound a megabyte of "(" or "NOT " grows the parser's stack,
// and a megabyte-long operator chain that of every later walk over its tree, by
// a frame per byte. The parser may recurse (a parenthesis, a NOT, a unary
// minus, an aggregate's argument) this deep and a parsed tree be this high.
// String renders a tree with at most one such level per tree level, so what
// parses once parses again from its rendering.
const maxExprDepth = 1000

// nest enters one more level of recursion; the caller leaves it with p.depth--.
func (p *parser) nest() error {
	if p.depth++; p.depth > maxExprDepth {
		return fmt.Errorf("expression nests deeper than %d levels at offset %d", maxExprDepth, p.peek().pos)
	}
	return nil
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		t := p.peek()
		return fmt.Errorf("expected %s, got %q at offset %d", kw, t.text, t.pos)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	if t := p.peek(); t.kind == tokOp && t.text == op {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		t := p.peek()
		return fmt.Errorf("expected %q, got %q at offset %d", op, t.text, t.pos)
	}
	return nil
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &Select{Limit: -1}
	stmt.Distinct = p.acceptKeyword("DISTINCT")

	if p.acceptOp("*") {
		stmt.Star = true
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			stmt.Items = append(stmt.Items, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, ref)
		if !p.acceptOp(",") {
			break
		}
	}

	for {
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, Join{Ref: ref, On: cond})
	}

	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}

	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, g)
			if !p.acceptOp(",") {
				break
			}
		}
	}

	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}

	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}

	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("expected number after LIMIT, got %q at offset %d", t.text, t.pos)
		}
		p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("invalid LIMIT %q at offset %d", t.text, t.pos)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t := p.peek()
		if t.kind != tokIdent {
			return SelectItem{}, fmt.Errorf("expected alias after AS, got %q at offset %d", t.text, t.pos)
		}
		p.next()
		item.Alias = t.text
	} else if t := p.peek(); t.kind == tokIdent {
		// Bare alias: SELECT a.x total FROM ...
		p.next()
		item.Alias = t.text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return TableRef{}, fmt.Errorf("expected table name, got %q at offset %d", t.text, t.pos)
	}
	p.next()
	ref := TableRef{Table: t.text}
	if p.acceptKeyword("AS") {
		a := p.peek()
		if a.kind != tokIdent {
			return TableRef{}, fmt.Errorf("expected alias after AS, got %q at offset %d", a.text, a.pos)
		}
		p.next()
		ref.Alias = a.text
	} else if a := p.peek(); a.kind == tokIdent {
		p.next()
		ref.Alias = a.text
	}
	return ref, nil
}

// Expression grammar, lowest to highest precedence:
//
//	expr     = orExpr
//	orExpr   = andExpr { OR andExpr }
//	andExpr  = notExpr { AND notExpr }
//	notExpr  = [NOT] predicate
//	predicate = additive [ compOp additive | [NOT] IN (...) |
//	            [NOT] BETWEEN additive AND additive |
//	            [NOT] LIKE 'pat' | IS [NOT] NULL ]
//	additive = multiplicative { (+|-) multiplicative }
//	multiplicative = unary { (*|/|%) unary }
//	unary    = [-] primary
//	primary  = literal | columnRef | aggregate call | ( expr )
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		p.depth--
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Optional NOT before IN/BETWEEN/LIKE.
	negated := false
	if t := p.peek(); t.kind == tokKeyword && t.text == "NOT" {
		if nt := p.toks[p.pos+1]; nt.kind == tokKeyword && (nt.text == "IN" || nt.text == "BETWEEN" || nt.text == "LIKE") {
			p.next()
			negated = true
		}
	}
	t := p.peek()
	switch {
	case t.kind == tokOp && isCompOp(t.text):
		p.next()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: t.text, Left: left, Right: right}, nil
	case t.kind == tokKeyword && t.text == "IN":
		p.next()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &In{X: left, List: list, Not: negated}, nil
	case t.kind == tokKeyword && t.text == "BETWEEN":
		p.next()
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Between{X: left, Lo: lo, Hi: hi, Not: negated}, nil
	case t.kind == tokKeyword && t.text == "LIKE":
		p.next()
		pt := p.peek()
		if pt.kind != tokString {
			return nil, fmt.Errorf("expected string pattern after LIKE, got %q at offset %d", pt.text, pt.pos)
		}
		p.next()
		return &Like{X: left, Pattern: pt.text, Not: negated}, nil
	case t.kind == tokKeyword && t.text == "IS":
		p.next()
		isNot := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: left, Not: isNot}, nil
	}
	return left, nil
}

func isCompOp(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "+" && t.text != "-") {
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: t.text, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "*" && t.text != "/" && t.text != "%") {
			return left, nil
		}
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: t.text, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if t := p.peek(); t.kind == tokOp && t.text == "-" {
		p.next()
		if err := p.nest(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.depth--
		// Fold negation into numeric literals for cleaner ASTs.
		if lit, ok := x.(*Literal); ok {
			switch lit.Value.Kind {
			case table.KindInt:
				return &Literal{Value: table.NewInt(-lit.Value.Int)}, nil
			case table.KindFloat:
				return &Literal{Value: table.NewFloat(-lit.Value.Float)}, nil
			}
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("invalid number %q at offset %d", t.text, t.pos)
			}
			return &Literal{Value: table.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid number %q at offset %d", t.text, t.pos)
		}
		return &Literal{Value: table.NewInt(n)}, nil
	case tokString:
		p.next()
		return &Literal{Value: table.NewString(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{Value: table.Null}, nil
		case "TRUE":
			p.next()
			return &Literal{Value: table.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: table.NewBool(false)}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			call := &Call{Name: t.text}
			if p.acceptOp("*") {
				call.Star = true
			} else {
				if err := p.nest(); err != nil {
					return nil, err
				}
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				p.depth--
				call.Arg = arg
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		return nil, fmt.Errorf("unexpected keyword %q at offset %d", t.text, t.pos)
	case tokIdent:
		p.next()
		ref := &ColumnRef{Column: t.text}
		if p.acceptOp(".") {
			ct := p.peek()
			if ct.kind != tokIdent {
				return nil, fmt.Errorf("expected column after %q., got %q at offset %d", t.text, ct.text, ct.pos)
			}
			p.next()
			ref.Table = t.text
			ref.Column = ct.text
		}
		return ref, nil
	case tokOp:
		if t.text == "(" {
			p.next()
			if err := p.nest(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			p.depth--
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("unexpected token %q at offset %d", t.text, t.pos)
}
