package engine

import (
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// Frame is an answer that has not been copied into rows: the output schema,
// the row count, and per output column where each cell lives. An SPJ
// projection of column references and literals ends as a frame over the base
// tables' column vectors and the joined batch's row-id vectors, so LIMIT
// shortens N and a caller with its own sink (the server's JSON encoder) boxes
// one cell at a time and keeps none; anything that needs values first
// (DISTINCT, ORDER BY, aggregates, expression projections) is a frame over its
// own materialized rows.
//
// A frame borrows the vectors of the database it was executed on. Those are
// immutable for the life of a serving generation; a frame must be consumed
// before the request that produced it returns.
type Frame struct {
	Schema table.Schema
	N      int
	Cols   []FrameCol

	own *table.RowSet // set when the frame is over its own rows
}

// FrameCol locates one output column. Cell i is Data's cell Sel[i] (cell i when
// Sel is nil) when Data, a relation's column, is set; Rows[i][Col] when Rows,
// the answer's own, is; Lit otherwise.
type FrameCol struct {
	Lit  table.Value
	Data *table.ColumnData
	Sel  []int32
	Rows []table.Row
	Col  int
}

// Cell returns output cell i of the column.
func (c *FrameCol) Cell(i int) table.Value {
	switch {
	case c.Data != nil:
		if c.Sel != nil {
			i = int(c.Sel[i])
		}
		return c.Data.Value(i)
	case c.Rows != nil:
		return c.Rows[i][c.Col]
	}
	return c.Lit
}

// fill boxes the column's cells lo, lo+1, ... into column j of dst, whose cells
// are still zero.
func (c *FrameCol) fill(dst []table.Row, j, lo int) {
	if c.Data != nil {
		c.Data.Gather(dst, j, c.Sel, lo)
		return
	}
	for k, r := range dst {
		r[j] = c.Cell(lo + k)
	}
}

// frameOver wraps materialized rows as a frame.
func frameOver(t *table.RowSet) *Frame {
	f := &Frame{Schema: t.Schema, N: len(t.Rows), Cols: make([]FrameCol, len(t.Schema)), own: t}
	for j := range f.Cols {
		f.Cols[j] = FrameCol{Rows: t.Rows, Col: j}
	}
	return f
}

// Table copies the frame into rows (or hands back the rows it is over).
func (f *Frame) Table() *table.RowSet {
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
	ref := func(bd binding) {
		p.cols = append(p.cols, FrameCol{Data: b.col(bd), Sel: jb.cols[bd.rel]})
	}
	if stmt.Star {
		for rel, t := range b.tables {
			for col := range t.Schema {
				ref(binding{rel: rel, col: col})
			}
		}
	}
	for i, it := range items {
		switch x := it.Expr.(type) {
		case *sqlparse.Literal:
			p.cols = append(p.cols, FrameCol{Lit: x.Value})
		case *sqlparse.ColumnRef:
			bd, _ := b.resolve(x) // bound before execution started
			ref(bd)
		default:
			if p.exprs == nil {
				p.exprs = make([]sqlparse.Expr, len(items))
			}
			p.exprs[i] = it.Expr
			p.cols = append(p.cols, FrameCol{})
		}
	}
	return p
}

// frame is the projection's first n rows, unmaterialized.
func (p *projection) frame(n int) *Frame {
	return &Frame{Schema: p.schema, N: n, Cols: p.cols}
}

// row builds output row idx of a projection that evaluates expressions, boxing
// the other cells from where they live.
func (p *projection) row(idx int) (table.Row, error) {
	row := make(table.Row, len(p.cols))
	for j := range p.cols {
		if p.exprs[j] == nil {
			row[j] = p.cols[j].Cell(idx)
			continue
		}
		v, err := evalExpr(p.exprs[j], evalEnv{b: p.b, batch: p.jb, idx: idx})
		if err != nil {
			return nil, err
		}
		row[j] = v
	}
	return row, nil
}

// materialize copies the projection's first n rows into a row set, with their
// lineage when asked for. It is the one routine that builds output rows: one
// allocation per row. A projection that cannot fail has had its guard ticks and
// output budget charged for the whole batch by the caller and is only polled
// here, once per morsel, whose rows are then filled a column at a time (one
// typed loop over each vector, while the morsel's rows are still in cache); one
// that evaluates expressions is charged row by row, so an output-budget trip
// returns exactly the rows built before it together with the error.
func (p *projection) materialize(n int, trackLineage bool, g *guard) (*table.RowSet, [][]table.RowID, error) {
	rows := make([]table.Row, n)
	var trip error
	if p.exprs == nil {
		for lo := 0; lo < n; lo += morselRows {
			if err := g.poll(); err != nil {
				return nil, nil, err
			}
			block := rows[lo:min(lo+morselRows, n)]
			for k := range block {
				block[k] = make(table.Row, len(p.cols))
			}
			for j := range p.cols {
				p.cols[j].fill(block, j, lo)
			}
		}
	} else {
		for idx := range rows {
			if err := g.tick(1); err != nil {
				return nil, nil, err
			}
			if trip = g.out(1); trip != nil {
				rows = rows[:idx]
				break
			}
			row, err := p.row(idx)
			if err != nil {
				return nil, nil, err
			}
			rows[idx] = row
		}
	}
	var lineage [][]table.RowID
	if trackLineage {
		lineage, _ = batchLineage(p.b, p.jb, len(rows), nil) // no guard: no error
	}
	return &table.RowSet{Schema: p.schema, Rows: rows}, lineage, trip
}
