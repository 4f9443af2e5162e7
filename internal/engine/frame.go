package engine

import (
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// Frame is an answer that has not been copied into rows: the output schema,
// the row count, and per output column where each cell lives. An SPJ
// projection of column references and literals ends as a frame over the base
// tables' rows and the joined batch's row-id vectors, so LIMIT shortens N and
// a caller with its own sink (the server's JSON encoder) reads cells in place;
// anything that needs values first (DISTINCT, ORDER BY, aggregates, expression
// projections) is a frame over its own materialized rows.
//
// A frame borrows the rows of the database it was executed on. Those are
// immutable for the life of a serving generation; a frame must be consumed
// before the request that produced it returns.
type Frame struct {
	Schema table.Schema
	N      int
	Cols   []FrameCol

	own *table.Table // set when the frame is over its own rows
}

// FrameCol locates one output column: cell i is Lit when Rows is nil, else
// Rows[Sel[i]][Col] (Rows[i][Col] when Sel is nil).
type FrameCol struct {
	Lit  table.Value
	Rows []table.Row
	Sel  []int32
	Col  int

	rel  int // relation the column reads (-1: literal or evaluated)
	more int // output columns after this one that read the next cells of the same row
}

// Cell returns output cell i of the column, in place.
func (c *FrameCol) Cell(i int) *table.Value {
	if c.Rows == nil {
		return &c.Lit
	}
	return &c.row(i)[c.Col]
}

func (c *FrameCol) row(i int) table.Row {
	if c.Sel != nil {
		i = int(c.Sel[i])
	}
	return c.Rows[i]
}

// frameOver wraps materialized rows as a frame.
func frameOver(t *table.Table) *Frame {
	f := &Frame{Schema: t.Schema, N: len(t.Rows), Cols: make([]FrameCol, len(t.Schema)), own: t}
	for j := range f.Cols {
		f.Cols[j] = FrameCol{Rows: t.Rows, Col: j, more: len(f.Cols) - j - 1}
	}
	return f
}

// Table copies the frame into rows (or hands back the rows it is over).
func (f *Frame) Table() *table.Table {
	if f.own != nil {
		return f.own
	}
	p := projection{schema: f.Schema, cols: f.Cols}
	t, _, _ := p.materialize(f.N, false, nil) // nothing to evaluate, no guard: no error
	return t
}

// projection is a statement's SELECT list compiled over a joined batch: one
// FrameCol per output column, plus the expression to evaluate for the columns
// that are neither a column reference nor a literal (exprs is nil when there
// are none, and the projection cannot fail).
type projection struct {
	b      *binder
	jb     *joinedBatch
	schema table.Schema
	cols   []FrameCol
	exprs  []sqlparse.Expr
}

// projectSchema computes the output schema (and the item list for non-star
// queries), shared by the row and columnar projection paths.
func projectSchema(b *binder, stmt *sqlparse.Select) (table.Schema, []sqlparse.SelectItem) {
	var schema table.Schema
	if stmt.Star {
		for i, t := range b.tables {
			prefix := b.refs[i].Name()
			for _, c := range t.Schema {
				schema = append(schema, table.Column{Name: prefix + "." + c.Name, Kind: c.Kind})
			}
		}
		return schema, nil
	}
	for _, it := range stmt.Items {
		name := it.Alias
		if name == "" {
			name = it.Expr.String()
		}
		schema = append(schema, table.Column{Name: name, Kind: inferKind(b, it.Expr)})
	}
	return schema, stmt.Items
}

func newProjection(b *binder, stmt *sqlparse.Select, jb *joinedBatch) *projection {
	schema, items := projectSchema(b, stmt)
	p := &projection{b: b, jb: jb, schema: schema, cols: make([]FrameCol, 0, len(schema))}
	ref := func(rel, col int) {
		p.cols = append(p.cols, FrameCol{Rows: b.tables[rel].Rows, Sel: jb.cols[rel], Col: col, rel: rel})
	}
	if stmt.Star {
		for rel, t := range b.tables {
			for col := range t.Schema {
				ref(rel, col)
			}
		}
	}
	for i, it := range items {
		switch x := it.Expr.(type) {
		case *sqlparse.Literal:
			p.cols = append(p.cols, FrameCol{Lit: x.Value, rel: -1})
		case *sqlparse.ColumnRef:
			bd, _ := b.resolve(x) // bound before execution started
			ref(bd.rel, bd.col)
		default:
			if p.exprs == nil {
				p.exprs = make([]sqlparse.Expr, len(items))
			}
			p.exprs[i] = it.Expr
			p.cols = append(p.cols, FrameCol{rel: -1})
		}
	}
	// Adjacent output columns reading adjacent cells of one relation's row
	// (SELECT *, above all) are copied as one run.
	for j := len(p.cols) - 2; j >= 0; j-- {
		if c, next := &p.cols[j], &p.cols[j+1]; c.rel >= 0 && next.rel == c.rel && next.Col == c.Col+1 {
			c.more = next.more + 1
		}
	}
	return p
}

// frame is the projection's first n rows, unmaterialized.
func (p *projection) frame(n int) *Frame {
	return &Frame{Schema: p.schema, N: n, Cols: p.cols}
}

// row builds output row idx.
func (p *projection) row(idx int) (table.Row, error) {
	row := make(table.Row, len(p.cols))
	for j := 0; j < len(p.cols); {
		c := &p.cols[j]
		switch {
		case c.Rows != nil:
			j += copy(row[j:j+1+c.more], c.row(idx)[c.Col:])
			continue
		case p.exprs != nil && p.exprs[j] != nil:
			v, err := evalExpr(p.exprs[j], evalEnv{b: p.b, batch: p.jb, idx: idx})
			if err != nil {
				return nil, err
			}
			row[j] = v
		default:
			row[j] = c.Lit
		}
		j++
	}
	return row, nil
}

// materialize copies the projection's first n rows into a table, with their
// lineage when asked for. It is the one routine that builds output
// rows. A projection that cannot fail has had its guard ticks and output
// budget charged for the whole batch by the caller and is only polled here,
// once per morsel; one that evaluates expressions is charged row by row, so an
// output-budget trip returns exactly the rows built before it together with
// the error.
func (p *projection) materialize(n int, trackLineage bool, g *guard) (*table.Table, [][]table.RowID, error) {
	out := &table.Table{Name: "result", Schema: p.schema, Rows: make([]table.Row, n)}
	var lineage [][]table.RowID
	if trackLineage {
		lineage = make([][]table.RowID, n)
	}
	charged := p.exprs == nil
	for idx := 0; idx < n; idx++ {
		if charged {
			if idx%morselRows == 0 {
				if err := g.poll(); err != nil {
					return nil, nil, err
				}
			}
		} else {
			if err := g.tick(1); err != nil {
				return nil, nil, err
			}
			if err := g.out(1); err != nil {
				out.Rows = out.Rows[:idx]
				if lineage != nil {
					lineage = lineage[:idx]
				}
				return out, lineage, err
			}
		}
		row, err := p.row(idx)
		if err != nil {
			return nil, nil, err
		}
		out.Rows[idx] = row
		if lineage != nil {
			lineage[idx] = batchLineageOf(p.b, p.jb, idx)
		}
	}
	return out, lineage, nil
}
