package engine

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"sync"

	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// ErrStatement marks an error in the statement itself: a table or column
// that does not bind, an ORDER BY that names no output column, an operator
// applied to values it cannot take, a bad LIKE pattern. Such a statement is
// wrong whatever data it runs on, so callers match it with errors.Is and hand
// it back to the client rather than retry or degrade. The marked error's text
// is its message alone.
var ErrStatement = errors.New("engine: statement error")

// statementError is an error of the statement, matching ErrStatement.
type statementError struct{ err error }

func (e statementError) Error() string        { return e.err.Error() }
func (e statementError) Unwrap() error        { return e.err }
func (e statementError) Is(target error) bool { return target == ErrStatement }

// statementErrorf formats an error of the statement.
func statementErrorf(format string, args ...any) error {
	return statementError{fmt.Errorf(format, args...)}
}

// binding maps a column reference to (relation index, column index).
type binding struct {
	rel int
	col int
}

// binder resolves column references against the relations in scope.
type binder struct {
	db       *table.Database
	refs     []sqlparse.TableRef // FROM entries then JOIN entries
	tables   []*table.Table      // resolved tables, aligned with refs
	bindings map[*sqlparse.ColumnRef]binding
}

func newBinder(db *table.Database, stmt *sqlparse.Select) (*binder, error) {
	b := &binder{db: db, bindings: make(map[*sqlparse.ColumnRef]binding)}
	add := func(ref sqlparse.TableRef) error {
		t := db.Table(ref.Table)
		if t == nil {
			return statementErrorf("engine: unknown table %q", ref.Table)
		}
		for _, existing := range b.refs {
			if strings.EqualFold(existing.Name(), ref.Name()) {
				return statementErrorf("engine: duplicate relation name %q (alias it)", ref.Name())
			}
		}
		b.refs = append(b.refs, ref)
		b.tables = append(b.tables, t)
		return nil
	}
	for _, ref := range stmt.From {
		if err := add(ref); err != nil {
			return nil, err
		}
	}
	for _, j := range stmt.Joins {
		if err := add(j.Ref); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// col is the columnar form of a bound column.
func (b *binder) col(bd binding) *table.ColumnData { return &b.tables[bd.rel].Columns().Cols[bd.col] }

// bindingName renders a bound column as relation.column.
func (b *binder) bindingName(bd binding) string {
	return b.refs[bd.rel].Name() + "." + b.tables[bd.rel].Schema[bd.col].Name
}

// resolve binds a single column reference.
func (b *binder) resolve(c *sqlparse.ColumnRef) (binding, error) {
	if bd, ok := b.bindings[c]; ok {
		return bd, nil
	}
	var found []binding
	for i, ref := range b.refs {
		if c.Table != "" && !strings.EqualFold(ref.Name(), c.Table) {
			continue
		}
		if col := b.tables[i].ColumnIndex(c.Column); col >= 0 {
			found = append(found, binding{rel: i, col: col})
		}
	}
	switch len(found) {
	case 0:
		return binding{}, statementErrorf("engine: column %q not found", c.String())
	case 1:
		b.bindings[c] = found[0]
		return found[0], nil
	default:
		return binding{}, statementErrorf("engine: column %q is ambiguous", c.String())
	}
}

// bindExpr resolves every column reference under e.
func (b *binder) bindExpr(e sqlparse.Expr) error {
	var firstErr error
	sqlparse.Walk(e, func(n sqlparse.Expr) {
		if c, ok := n.(*sqlparse.ColumnRef); ok {
			if _, err := b.resolve(c); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	return firstErr
}

// bindStmt binds every expression of stmt up front, so resolution errors
// surface before execution starts. ORDER BY expressions are not pre-bound: they
// may reference output aliases rather than base columns, and finish resolves
// them lazily.
func (b *binder) bindStmt(stmt *sqlparse.Select) error {
	for _, it := range stmt.Items {
		if err := b.bindExpr(it.Expr); err != nil {
			return err
		}
	}
	for _, j := range stmt.Joins {
		if err := b.bindExpr(j.On); err != nil {
			return err
		}
	}
	if err := b.bindExpr(stmt.Where); err != nil {
		return err
	}
	for _, g := range stmt.GroupBy {
		if err := b.bindExpr(g); err != nil {
			return err
		}
	}
	return b.bindExpr(stmt.Having)
}

// joinedRow is an intermediate tuple during join processing: one row index
// per relation, -1 for relations not yet joined.
type joinedRow []int32

// evalEnv supplies column values for expression evaluation over either a
// joined row (the per-row scan, the reference executor) or one tuple of a
// joinedBatch (batch + idx set). Exactly one of row/batch is set; with neither, every
// column reads as NULL (used for constant-only evaluation).
type evalEnv struct {
	b     *binder
	row   joinedRow
	batch *joinedBatch
	idx   int
}

func (e evalEnv) value(bd binding) table.Value {
	var ri int32 = -1
	if e.batch != nil {
		if c := e.batch.cols[bd.rel]; c != nil {
			ri = c[e.idx]
		}
	} else if e.row != nil {
		ri = e.row[bd.rel]
	}
	if ri < 0 {
		return table.Null
	}
	return e.b.col(bd).Value(int(ri))
}

// likeCacheCap bounds the LIKE-pattern memo. Workloads reuse a small set of
// patterns across millions of row evaluations, but patterns are user input,
// so the memo must not grow without bound; on overflow the oldest entry is
// evicted (FIFO), which is enough because live queries re-insert their
// pattern on the next row at worst.
const likeCacheCap = 256

var (
	likeMu    sync.RWMutex
	likeCache = make(map[string]*regexp.Regexp, likeCacheCap)
	likeOrder []string // insertion order, for FIFO eviction
)

func likeRegexp(pattern string) (*regexp.Regexp, error) {
	likeMu.RLock()
	re, ok := likeCache[pattern]
	likeMu.RUnlock()
	if ok {
		return re, nil
	}
	var b strings.Builder
	b.WriteString("(?is)^")
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	re, err := regexp.Compile(b.String())
	if err != nil {
		return nil, statementErrorf("engine: bad LIKE pattern %q: %w", pattern, err)
	}
	likeMu.Lock()
	if _, exists := likeCache[pattern]; !exists {
		for len(likeCache) >= likeCacheCap {
			oldest := likeOrder[0]
			likeOrder = likeOrder[1:]
			delete(likeCache, oldest)
		}
		likeCache[pattern] = re
		likeOrder = append(likeOrder, pattern)
	}
	likeMu.Unlock()
	return re, nil
}

// evalExpr evaluates e over env. Aggregate calls are not valid here; they are
// handled by the aggregation operator.
func evalExpr(e sqlparse.Expr, env evalEnv) (table.Value, error) {
	switch x := e.(type) {
	case *sqlparse.Literal:
		return x.Value, nil
	case *sqlparse.ColumnRef:
		bd, err := env.b.resolve(x)
		if err != nil {
			return table.Null, err
		}
		return env.value(bd), nil
	case *sqlparse.Unary:
		v, err := evalExpr(x.X, env)
		if err != nil {
			return table.Null, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return table.Null, nil
			}
			return table.NewBool(!truthy(v)), nil
		case "-":
			switch v.Kind {
			case table.KindInt:
				return table.NewInt(-v.Int), nil
			case table.KindFloat:
				return table.NewFloat(-v.Float), nil
			case table.KindNull:
				return table.Null, nil
			}
			return table.Null, statementErrorf("engine: cannot negate %v", v.Kind)
		}
		return table.Null, fmt.Errorf("engine: unknown unary op %q", x.Op)
	case *sqlparse.Binary:
		return evalBinary(x, env)
	case *sqlparse.In:
		v, err := evalExpr(x.X, env)
		if err != nil {
			return table.Null, err
		}
		if v.IsNull() {
			return table.Null, nil
		}
		match := false
		for _, item := range x.List {
			iv, err := evalExpr(item, env)
			if err != nil {
				return table.Null, err
			}
			if v.Equal(iv) {
				match = true
				break
			}
		}
		return table.NewBool(match != x.Not), nil
	case *sqlparse.Between:
		v, err := evalExpr(x.X, env)
		if err != nil {
			return table.Null, err
		}
		lo, err := evalExpr(x.Lo, env)
		if err != nil {
			return table.Null, err
		}
		hi, err := evalExpr(x.Hi, env)
		if err != nil {
			return table.Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return table.Null, nil
		}
		in := v.Compare(lo) >= 0 && v.Compare(hi) <= 0
		return table.NewBool(in != x.Not), nil
	case *sqlparse.Like:
		v, err := evalExpr(x.X, env)
		if err != nil {
			return table.Null, err
		}
		if v.IsNull() {
			return table.Null, nil
		}
		re, err := likeRegexp(x.Pattern)
		if err != nil {
			return table.Null, err
		}
		return table.NewBool(re.MatchString(v.String()) != x.Not), nil
	case *sqlparse.IsNull:
		v, err := evalExpr(x.X, env)
		if err != nil {
			return table.Null, err
		}
		return table.NewBool(v.IsNull() != x.Not), nil
	case *sqlparse.Call:
		return table.Null, statementErrorf("engine: aggregate %s not allowed in this context", x.Name)
	}
	return table.Null, fmt.Errorf("engine: unsupported expression %T", e)
}

func evalBinary(x *sqlparse.Binary, env evalEnv) (table.Value, error) {
	switch x.Op {
	case "AND":
		l, err := evalExpr(x.Left, env)
		if err != nil {
			return table.Null, err
		}
		if !l.IsNull() && !truthy(l) {
			return table.NewBool(false), nil
		}
		r, err := evalExpr(x.Right, env)
		if err != nil {
			return table.Null, err
		}
		if !r.IsNull() && !truthy(r) {
			return table.NewBool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return table.Null, nil
		}
		return table.NewBool(true), nil
	case "OR":
		l, err := evalExpr(x.Left, env)
		if err != nil {
			return table.Null, err
		}
		if !l.IsNull() && truthy(l) {
			return table.NewBool(true), nil
		}
		r, err := evalExpr(x.Right, env)
		if err != nil {
			return table.Null, err
		}
		if !r.IsNull() && truthy(r) {
			return table.NewBool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return table.Null, nil
		}
		return table.NewBool(false), nil
	}
	l, err := evalExpr(x.Left, env)
	if err != nil {
		return table.Null, err
	}
	r, err := evalExpr(x.Right, env)
	if err != nil {
		return table.Null, err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return table.Null, nil
		}
		cmp := l.Compare(r)
		var out bool
		switch x.Op {
		case "=":
			out = l.Equal(r)
		case "<>":
			out = !l.Equal(r)
		case "<":
			out = cmp < 0
		case "<=":
			out = cmp <= 0
		case ">":
			out = cmp > 0
		case ">=":
			out = cmp >= 0
		}
		return table.NewBool(out), nil
	case "+", "-", "*", "/", "%":
		if l.IsNull() || r.IsNull() {
			return table.Null, nil
		}
		if !l.IsNumeric() || !r.IsNumeric() {
			return table.Null, statementErrorf("engine: arithmetic %q on non-numeric values", x.Op)
		}
		if l.Kind == table.KindInt && r.Kind == table.KindInt && x.Op != "/" {
			a, b := l.Int, r.Int
			switch x.Op {
			case "+":
				return table.NewInt(a + b), nil
			case "-":
				return table.NewInt(a - b), nil
			case "*":
				return table.NewInt(a * b), nil
			case "%":
				if b == 0 {
					return table.Null, nil
				}
				return table.NewInt(a % b), nil
			}
		}
		a, b := l.AsFloat(), r.AsFloat()
		switch x.Op {
		case "+":
			return table.NewFloat(a + b), nil
		case "-":
			return table.NewFloat(a - b), nil
		case "*":
			return table.NewFloat(a * b), nil
		case "/":
			if b == 0 {
				return table.Null, nil
			}
			return table.NewFloat(a / b), nil
		case "%":
			if b == 0 {
				return table.Null, nil
			}
			return table.NewFloat(float64(int64(a) % int64(b))), nil
		}
	}
	return table.Null, fmt.Errorf("engine: unknown binary op %q", x.Op)
}

// truthy reports whether a non-NULL value counts as true in a predicate
// context.
func truthy(v table.Value) bool {
	switch v.Kind {
	case table.KindBool:
		return v.Bool
	case table.KindInt:
		return v.Int != 0
	case table.KindFloat:
		return v.Float != 0
	case table.KindString:
		return v.Str != ""
	default:
		return false
	}
}
