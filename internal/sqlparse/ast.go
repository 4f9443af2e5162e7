package sqlparse

import (
	"fmt"
	"math"
	"strings"

	"asqprl/internal/table"
)

// Expr is a SQL expression node. Every expression can render itself back to
// SQL text (String) and deep-copy itself (CloneExpr).
type Expr interface {
	fmt.Stringer
	exprNode()
	CloneExpr() Expr
}

// ColumnRef names a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table  string // may be ""
	Column string
}

func (*ColumnRef) exprNode() {}

// String renders the reference as [table.]column.
func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// CloneExpr returns a deep copy.
func (c *ColumnRef) CloneExpr() Expr { cp := *c; return &cp }

// Literal is a constant value.
type Literal struct {
	Value table.Value
}

func (*Literal) exprNode() {}

// String renders the literal as SQL text (strings quoted, NULL as NULL).
func (l *Literal) String() string {
	switch l.Value.Kind {
	case table.KindNull:
		return "NULL"
	case table.KindString:
		return "'" + strings.ReplaceAll(l.Value.Str, "'", "''") + "'"
	case table.KindBool:
		if l.Value.Bool {
			return "TRUE"
		}
		return "FALSE"
	case table.KindFloat:
		// An integral float keeps a mark of its kind: "6" would parse back as
		// an int, and int and float literals differ in arithmetic and in the
		// kind of the column they project.
		text := l.Value.String()
		if !strings.ContainsAny(text, ".eE") && !math.IsInf(l.Value.Float, 0) && !math.IsNaN(l.Value.Float) {
			text += ".0"
		}
		return text
	default:
		return l.Value.String()
	}
}

// CloneExpr returns a deep copy.
func (l *Literal) CloneExpr() Expr { cp := *l; return &cp }

// Binary is a binary operation. Op is one of AND OR = <> < <= > >= + - * / %.
type Binary struct {
	Op          string
	Left, Right Expr
}

func (*Binary) exprNode() {}

// String renders the operation with minimal parenthesization (children are
// parenthesized when they are themselves binary ops, which keeps the output
// unambiguous without tracking precedence).
func (b *Binary) String() string {
	return fmt.Sprintf("%s %s %s", parenthesize(b.Left), b.Op, parenthesize(b.Right))
}

// CloneExpr returns a deep copy.
func (b *Binary) CloneExpr() Expr {
	return &Binary{Op: b.Op, Left: b.Left.CloneExpr(), Right: b.Right.CloneExpr()}
}

func parenthesize(e Expr) string {
	switch e.(type) {
	case *Binary, *In, *Between, *Like, *IsNull:
		return "(" + e.String() + ")"
	default:
		return e.String()
	}
}

// Unary is NOT x or -x.
type Unary struct {
	Op string // "NOT" or "-"
	X  Expr
}

func (*Unary) exprNode() {}

// String renders the unary operation.
func (u *Unary) String() string {
	if u.Op == "NOT" {
		return "NOT " + parenthesize(u.X)
	}
	return u.Op + parenthesize(u.X)
}

// CloneExpr returns a deep copy.
func (u *Unary) CloneExpr() Expr { return &Unary{Op: u.Op, X: u.X.CloneExpr()} }

// In is "x [NOT] IN (e1, e2, ...)".
type In struct {
	X    Expr
	List []Expr
	Not  bool
}

func (*In) exprNode() {}

// String renders the IN predicate.
func (in *In) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	op := "IN"
	if in.Not {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%s)", parenthesize(in.X), op, strings.Join(parts, ", "))
}

// CloneExpr returns a deep copy.
func (in *In) CloneExpr() Expr {
	list := make([]Expr, len(in.List))
	for i, e := range in.List {
		list[i] = e.CloneExpr()
	}
	return &In{X: in.X.CloneExpr(), List: list, Not: in.Not}
}

// Between is "x [NOT] BETWEEN lo AND hi".
type Between struct {
	X, Lo, Hi Expr
	Not       bool
}

func (*Between) exprNode() {}

// String renders the BETWEEN predicate.
func (b *Between) String() string {
	op := "BETWEEN"
	if b.Not {
		op = "NOT BETWEEN"
	}
	return fmt.Sprintf("%s %s %s AND %s", parenthesize(b.X), op, parenthesize(b.Lo), parenthesize(b.Hi))
}

// CloneExpr returns a deep copy.
func (b *Between) CloneExpr() Expr {
	return &Between{X: b.X.CloneExpr(), Lo: b.Lo.CloneExpr(), Hi: b.Hi.CloneExpr(), Not: b.Not}
}

// Like is "x [NOT] LIKE 'pattern'" with % and _ wildcards.
type Like struct {
	X       Expr
	Pattern string
	Not     bool
}

func (*Like) exprNode() {}

// String renders the LIKE predicate.
func (l *Like) String() string {
	op := "LIKE"
	if l.Not {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("%s %s '%s'", parenthesize(l.X), op, strings.ReplaceAll(l.Pattern, "'", "''"))
}

// CloneExpr returns a deep copy.
func (l *Like) CloneExpr() Expr { cp := *l; cp.X = l.X.CloneExpr(); return &cp }

// IsNull is "x IS [NOT] NULL".
type IsNull struct {
	X   Expr
	Not bool
}

func (*IsNull) exprNode() {}

// String renders the IS NULL predicate.
func (n *IsNull) String() string {
	if n.Not {
		return parenthesize(n.X) + " IS NOT NULL"
	}
	return parenthesize(n.X) + " IS NULL"
}

// CloneExpr returns a deep copy.
func (n *IsNull) CloneExpr() Expr { return &IsNull{X: n.X.CloneExpr(), Not: n.Not} }

// Call is an aggregate function call: COUNT(*), COUNT(x), SUM(x), AVG(x),
// MIN(x), MAX(x).
type Call struct {
	Name string // upper-case
	Arg  Expr   // nil for COUNT(*)
	Star bool
}

func (*Call) exprNode() {}

// String renders the call.
func (c *Call) String() string {
	if c.Star {
		return c.Name + "(*)"
	}
	return fmt.Sprintf("%s(%s)", c.Name, c.Arg)
}

// CloneExpr returns a deep copy.
func (c *Call) CloneExpr() Expr {
	cp := &Call{Name: c.Name, Star: c.Star}
	if c.Arg != nil {
		cp.Arg = c.Arg.CloneExpr()
	}
	return cp
}

// TableRef is an entry in a FROM list: a table name with an optional alias.
type TableRef struct {
	Table string
	Alias string // "" when unaliased
}

// Name returns the alias if set, else the table name; this is the name
// columns are qualified with.
func (r TableRef) Name() string {
	if r.Alias != "" {
		return r.Alias
	}
	return r.Table
}

// String renders the reference.
func (r TableRef) String() string {
	if r.Alias != "" {
		return r.Table + " AS " + r.Alias
	}
	return r.Table
}

// Join is an explicit "JOIN t [AS a] ON cond" clause.
type Join struct {
	Ref TableRef
	On  Expr
}

// SelectItem is one projection: an expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// String renders the projection item.
func (s SelectItem) String() string {
	if s.Alias != "" {
		return s.Expr.String() + " AS " + s.Alias
	}
	return s.Expr.String()
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// String renders the order key.
func (o OrderItem) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String()
}

// Select is a parsed SELECT statement.
type Select struct {
	Distinct bool
	Star     bool // SELECT *
	Items    []SelectItem
	From     []TableRef
	Joins    []Join
	Where    Expr // nil when absent
	GroupBy  []Expr
	Having   Expr // nil when absent
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

// String renders the statement back to SQL. Parse(stmt.String()) yields an
// equivalent statement (round-trip property, tested).
func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	if s.Star {
		b.WriteString("*")
	} else {
		parts := make([]string, len(s.Items))
		for i, it := range s.Items {
			parts[i] = it.String()
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	b.WriteString(" FROM ")
	froms := make([]string, len(s.From))
	for i, f := range s.From {
		froms[i] = f.String()
	}
	b.WriteString(strings.Join(froms, ", "))
	for _, j := range s.Joins {
		fmt.Fprintf(&b, " JOIN %s ON %s", j.Ref, j.On)
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		parts := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			parts[i] = g.String()
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		parts := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			parts[i] = o.String()
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// Clone returns a deep copy of the statement.
func (s *Select) Clone() *Select {
	cp := &Select{
		Distinct: s.Distinct,
		Star:     s.Star,
		Limit:    s.Limit,
	}
	for _, it := range s.Items {
		cp.Items = append(cp.Items, SelectItem{Expr: it.Expr.CloneExpr(), Alias: it.Alias})
	}
	cp.From = append(cp.From, s.From...)
	for _, j := range s.Joins {
		cp.Joins = append(cp.Joins, Join{Ref: j.Ref, On: j.On.CloneExpr()})
	}
	if s.Where != nil {
		cp.Where = s.Where.CloneExpr()
	}
	for _, g := range s.GroupBy {
		cp.GroupBy = append(cp.GroupBy, g.CloneExpr())
	}
	if s.Having != nil {
		cp.Having = s.Having.CloneExpr()
	}
	for _, o := range s.OrderBy {
		cp.OrderBy = append(cp.OrderBy, OrderItem{Expr: o.Expr.CloneExpr(), Desc: o.Desc})
	}
	return cp
}

// HasAggregates reports whether the statement uses aggregate functions or
// GROUP BY.
func (s *Select) HasAggregates() bool {
	if len(s.GroupBy) > 0 || s.Having != nil {
		return true
	}
	found := false
	for _, it := range s.Items {
		Walk(it.Expr, func(e Expr) {
			if _, ok := e.(*Call); ok {
				found = true
			}
		})
	}
	return found
}

// Walk traverses e depth-first, invoking fn on every node.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Binary:
		Walk(x.Left, fn)
		Walk(x.Right, fn)
	case *Unary:
		Walk(x.X, fn)
	case *In:
		Walk(x.X, fn)
		for _, item := range x.List {
			Walk(item, fn)
		}
	case *Between:
		Walk(x.X, fn)
		Walk(x.Lo, fn)
		Walk(x.Hi, fn)
	case *Like:
		Walk(x.X, fn)
	case *IsNull:
		Walk(x.X, fn)
	case *Call:
		Walk(x.Arg, fn)
	}
}

// exprHeight is the height of e's tree: 0 for nil, 1 for a leaf.
func exprHeight(e Expr) int {
	h := 0
	switch x := e.(type) {
	case nil:
		return 0
	case *Binary:
		h = max(exprHeight(x.Left), exprHeight(x.Right))
	case *Unary:
		h = exprHeight(x.X)
	case *In:
		h = exprHeight(x.X)
		for _, item := range x.List {
			h = max(h, exprHeight(item))
		}
	case *Between:
		h = max(exprHeight(x.X), exprHeight(x.Lo), exprHeight(x.Hi))
	case *Like:
		h = exprHeight(x.X)
	case *IsNull:
		h = exprHeight(x.X)
	case *Call:
		h = exprHeight(x.Arg)
	}
	return h + 1
}

// eachExpr calls fn on the statement's expressions in clause order (nil where a
// clause is absent).
func (s *Select) eachExpr(fn func(Expr)) {
	for _, it := range s.Items {
		fn(it.Expr)
	}
	for _, j := range s.Joins {
		fn(j.On)
	}
	fn(s.Where)
	for _, g := range s.GroupBy {
		fn(g)
	}
	fn(s.Having)
	for _, o := range s.OrderBy {
		fn(o.Expr)
	}
}

// EachColumn calls fn with every column reference appearing anywhere in the
// statement, in traversal order.
func (s *Select) EachColumn(fn func(*ColumnRef)) {
	s.eachExpr(func(e Expr) {
		Walk(e, func(n Expr) {
			if c, ok := n.(*ColumnRef); ok {
				fn(c)
			}
		})
	})
}

// Conjuncts splits e on top-level ANDs. A nil expression yields nil.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(Conjuncts(b.Left), Conjuncts(b.Right)...)
	}
	return []Expr{e}
}

// AndAll joins exprs with AND; it returns nil for an empty slice.
func AndAll(exprs []Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if out == nil {
			out = e
		} else {
			out = &Binary{Op: "AND", Left: out, Right: e}
		}
	}
	return out
}
