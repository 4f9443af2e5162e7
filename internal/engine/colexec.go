package engine

import (
	"fmt"
	"slices"
	"strings"

	"asqprl/internal/faults"
	"asqprl/internal/obs"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// Columnar execution pipeline: the executor. Intermediates are a joinedBatch
// (struct-of-arrays of row indices), filters run through vectorized kernels
// (kernels.go) with zone-map morsel skipping, and a join probes the build
// column's cached table.JoinIndex with fixed-size typed keys. Every operator
// runs on the calling goroutine. Operator for operator — fault-injection points,
// guard tick/budget accounting, error strings, result order — it mirrors the
// row-at-a-time reference executor in rowengine_test.go, and the differential
// fuzz harness (fuzz_differential_test.go) holds its results byte-identical to
// that one's.

// morselRows is the number of rows a full scan filters at a time. It matches
// guardInterval, so one guard tick per morsel is the row loop's cancellation
// granularity, and it must equal table.ZoneChunkRows so zone-map entry m
// summarizes exactly morsel m: the second constant fails to compile if they
// diverge.
const (
	morselRows = 1024
	_          = -uint(morselRows - table.ZoneChunkRows)
)

// morselCount returns the number of morsels covering n input rows.
func morselCount(n int) int {
	return (n + morselRows - 1) / morselRows
}

// joinedBatch is the columnar join intermediate: one row-index column per
// relation (nil for relations not yet bound), all bound columns of length n.
type joinedBatch struct {
	n    int
	cols [][]int32
}

// boundRels returns the bound relation indices in ascending order.
func (jb *joinedBatch) boundRels() []int {
	out := make([]int, 0, len(jb.cols))
	for r, c := range jb.cols {
		if c != nil {
			out = append(out, r)
		}
	}
	return out
}

// gather compacts the batch down to the given batch-row indices (ascending),
// producing fresh columns (the input batch may share candidate slices).
func (jb *joinedBatch) gather(keep []int32) *joinedBatch {
	out := &joinedBatch{n: len(keep), cols: make([][]int32, len(jb.cols))}
	for r, c := range jb.cols {
		if c == nil {
			continue
		}
		nc := make([]int32, len(keep))
		for k, idx := range keep {
			nc[k] = c[idx]
		}
		out.cols[r] = nc
	}
	return out
}

// tickChunks accounts n rows against the guard in guardInterval-sized chunks,
// preserving the serial row loop's poll cadence.
func tickChunks(g *guard, n int) error {
	for n > 0 {
		c := n
		if c > guardInterval {
			c = guardInterval
		}
		if err := g.tick(c); err != nil {
			return err
		}
		n -= c
	}
	return nil
}

// executeColTail is the pipeline after planning: vectorized scan/join, then
// aggregate or project, then finish.
func executeColTail(b *binder, stmt *sqlparse.Select, preds []predClass, opts Options, g *guard, span *obs.Span) (*Result, error) {
	// Count-only SPJ needs no output columns at all, which lets the join
	// pipeline prune every batch column not consumed by a later join step.
	countOnly := opts.countOnly && !opts.TrackLineage && countableStmt(stmt)
	jb, err := runJoinsCol(b, preds, opts, g, span, !countOnly)
	if err != nil {
		return nil, err
	}

	if stmt.HasAggregates() {
		aggSpan := span.StartChild("engine/aggregate")
		out, err := aggregateCol(b, stmt, jb, g, aggSpan)
		if err != nil {
			markSpanOutcome(aggSpan, err)
			aggSpan.End()
			return nil, err
		}
		aggSpan.Annotate("rows_out", out.NumRows())
		aggSpan.End()
		res := &Result{Table: out}
		res, err = finish(stmt, res, nil)
		return res, err
	}

	projSpan := span.StartChild("engine/project")
	res, err := projectCol(b, stmt, jb, opts, countOnly, g)
	if res != nil {
		projSpan.Annotate("rows_in", jb.n)
		projSpan.Annotate("rows_out", res.rows())
		projSpan.Annotate("materialized", res.Table != nil)
	}
	markSpanOutcome(projSpan, err)
	projSpan.End()
	if err != nil {
		// A tripped output budget still carries the rows produced so far;
		// surface them (un-finished) so callers can serve a tagged partial.
		return res, err
	}
	if sortsOutput(stmt) {
		res, err = finish(stmt, res, func(i int) evalEnv { return evalEnv{b: b, batch: jb, idx: i} })
	}
	return res, err
}

// sortsOutput reports whether DISTINCT or ORDER BY stands between the
// projection and LIMIT; without either, LIMIT is applied by the projection.
func sortsOutput(stmt *sqlparse.Select) bool {
	return stmt.Distinct || len(stmt.OrderBy) > 0
}

// countableStmt reports whether a statement's cardinality follows from its
// join cardinality alone: plain SPJ (no aggregates, DISTINCT or ORDER BY)
// projecting only columns and literals, so no output row has to exist to be
// counted. LIMIT caps the count.
func countableStmt(stmt *sqlparse.Select) bool {
	if stmt.HasAggregates() || sortsOutput(stmt) {
		return false
	}
	if stmt.Star {
		return true
	}
	for _, it := range stmt.Items {
		switch it.Expr.(type) {
		case *sqlparse.ColumnRef, *sqlparse.Literal:
		default:
			return false
		}
	}
	return true
}

// neededAfterStep reports which relations' batch columns must survive the
// join step that binds relation `step`: those referenced by a predicate that
// is applied after it (an equi-join whose maximum relation exceeds step, a
// residual whose maximum relation is step or later), plus everything when the
// final consumer reads columns (finalNeeds). Count-only execution passes
// finalNeeds=false, so a last join step that no residual follows materializes
// no columns at all and reduces to counting matches.
func neededAfterStep(preds []predClass, nRel, step int, finalNeeds bool) []bool {
	needed := make([]bool, nRel)
	if finalNeeds {
		for r := range needed {
			needed[r] = true
		}
		return needed
	}
	for _, p := range preds {
		if len(p.rels) == 0 {
			continue
		}
		if last := p.rels[len(p.rels)-1]; last > step || last == step && !p.isEquiJoin && len(p.rels) > 1 {
			for _, r := range p.rels {
				needed[r] = true
			}
		}
	}
	return needed
}

// runJoinsCol executes the vectorized scan + join pipeline, returning the
// joined batch. finalNeeds=false (count-only) lets join steps prune batch
// columns that no later predicate reads; jb.n is exact either way.
func runJoinsCol(b *binder, preds []predClass, opts Options, g *guard, span *obs.Span, finalNeeds bool) (out *joinedBatch, err error) {
	n := len(b.tables)

	scanSpan := span.StartChild("engine/scan")
	var st scanStats
	candidates, err := scanRelationsCol(b, preds, g, scanSpan, &st)
	if err != nil {
		markSpanOutcome(scanSpan, err)
		scanSpan.End()
		return nil, err
	}
	if scanSpan != nil {
		for rel := 0; rel < n; rel++ {
			scanSpan.AnnotateNamed("rows/", b.refs[rel].Name(), len(candidates[rel]))
		}
		if st.skipped > 0 {
			scanSpan.Annotate("morsels_skipped", st.skipped)
		}
	}
	scanSpan.End()
	morselsSkipped.Add(st.skipped)
	scanSideways.Add(st.sideways)
	scanRowsRead.Add(st.rowsRead)

	joinSpan := span.StartChild("engine/join")
	defer func() {
		if err != nil {
			markSpanOutcome(joinSpan, err)
		} else {
			joinSpan.Annotate("rows_out", out.n)
		}
		joinSpan.End()
	}()

	cur := &joinedBatch{n: len(candidates[0]), cols: make([][]int32, n)}
	cur.cols[0] = candidates[0]

	bound := map[int]bool{0: true}
	for rel := 1; rel < n; rel++ {
		var joins []predClass
		for _, p := range preds {
			if !p.isEquiJoin {
				continue
			}
			a, c := p.leftBind.rel, p.rightBind.rel
			if (a == rel && bound[c]) || (c == rel && bound[a]) {
				joins = append(joins, p)
			}
		}
		needed := neededAfterStep(preds, n, rel, finalNeeds)
		next, err := joinStepCol(b, cur, candidates[rel], rel, joins, needed, opts, g, joinSpan)
		if err != nil {
			return nil, err
		}
		cur = next
		bound[rel] = true

		for _, p := range preds {
			if p.isEquiJoin || len(p.rels) < 2 {
				continue
			}
			if p.rels[len(p.rels)-1] != rel {
				continue
			}
			allBound := true
			for _, r := range p.rels {
				if !bound[r] {
					allBound = false
					break
				}
			}
			if !allBound {
				continue
			}
			keep := make([]int32, 0, cur.n)
			env := evalEnv{b: b, batch: cur}
			for idx := 0; idx < cur.n; idx++ {
				if err := g.tick(1); err != nil {
					return nil, err
				}
				env.idx = idx
				v, err := evalExpr(p.expr, env)
				if err != nil {
					return nil, err
				}
				if !v.IsNull() && truthy(v) {
					keep = append(keep, int32(idx))
				}
			}
			cur = cur.gather(keep)
		}
	}
	return cur, nil
}

// scanStats counts what the scan phase did, for its span and its counters.
type scanStats struct {
	skipped  int64 // morsels the zone maps pruned
	sideways int64 // relations read through a partner's keys
	rowsRead int64 // rows handed to the filters, over all relations
}

// The registry's copies of scanStats, summed over queries.
const (
	metricMorselsSkipped = "engine/morsels_skipped"
	metricScanSideways   = "engine/scan/sideways"
	metricScanRowsRead   = "engine/scan/rows_read"
)

var (
	morselsSkipped = obs.Default().Counter(metricMorselsSkipped)
	scanSideways   = obs.Default().Counter(metricScanSideways)
	scanRowsRead   = obs.Default().Counter(metricScanRowsRead)
)

// sidewaysFrac bounds the scan's narrow access paths: a relation reads only the
// rows its index holds for one of its own int ranges, or for a scanned partner's
// surviving keys, when they are under 1/sidewaysFrac of its rows (and the keys
// too, for a partner's); above, it scans as cheaply.
const sidewaysFrac = 8

// relScan is one relation's part of the scan plan: its filters compiled to
// kernels (nil when one does not compile) and, when one of them is an int range
// a dense join index serves, the fewest rows any such range holds.
type relScan struct {
	kernels []kernel
	index   *intRange // nil: no kernel's range is served by an index
	rows    []int32   // index's rows, grouped by key (the index's own slice)
}

// indexed reports whether the relation is read through its own index: its
// narrowest range holds under 1/sidewaysFrac of its rows.
func (rs *relScan) indexed(numRows int) bool {
	return rs.index != nil && len(rs.rows) < numRows/sidewaysFrac
}

// scanPlan compiles every relation's filters and finds its narrowest index
// range (indexRange), and fixes the scan order: FROM order, the row engine's,
// or — sideways — fewest candidate rows first (an index range's exact count,
// else the table's size), so that a selective side is scanned before the
// relations that can take its keys. Leaving rows unread must not show: every
// relation compiles (a kernel cannot raise), no residual predicate runs before
// the last join step (it can raise, on tuples unread rows used to form) and no
// step is a cross product (its budget error quotes its operands' sizes). An
// index range leaves unread only rows the relation's own kernels reject, so it
// needs none of that.
func scanPlan(b *binder, preds []predClass) (scans []relScan, order []int, sideways bool) {
	n := len(b.tables)
	scans, order, sideways = make([]relScan, n), make([]int, n), n > 1
	count := make([]int, n)
	for rel := range order {
		order[rel] = rel
		cs := b.tables[rel].Columns()
		rs := &scans[rel]
		rs.kernels, _ = compileFilters(b, rel, cs, relFilters(preds, rel))
		rs.index, rs.rows = indexRange(cs, rs.kernels)
		count[rel] = cs.NumRows
		if rs.index != nil {
			count[rel] = len(rs.rows)
		}
		sideways = sideways && rs.kernels != nil
	}
	sideways = sideways && planOpCounts(b, preds).crossJoins == 0
	for _, p := range preds {
		if !p.isEquiJoin && len(p.rels) > 1 && p.rels[len(p.rels)-1] != n-1 {
			sideways = false
		}
	}
	for i := 1; sideways && i < n; i++ { // a stable insertion sort: n is a handful
		for j := i; j > 0 && count[order[j]] < count[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return scans, order, sideways
}

// indexRange returns, of the kernels' int ranges, the one whose column's cached
// join index holds the fewest rows for it, and those rows. Only a column the
// zone maps prove dense is asked for its index (denseInts), so a sparse one is
// never indexed to learn it; a relation of one morsel scans as cheaply as it
// builds one, and is never asked.
func indexRange(cs *table.ColumnSet, ks []kernel) (best *intRange, rows []int32) {
	if cs.NumRows <= morselRows {
		return nil, nil
	}
	for _, k := range ks {
		if k.ints == nil || !denseInts(&cs.Cols[k.ints.col], cs.NumRows) {
			continue
		}
		if r, ok := joinIndexOf(cs, k.ints.col).IntRange(k.ints.lo, k.ints.hi); ok && (best == nil || len(r) < len(rows)) {
			best, rows = k.ints, r
		}
	}
	return best, rows
}

// denseInts reports, from the zone maps' bounds alone (intSpan), whether the
// join index of int column c takes the dense layout. A column with a bound past
// ±2^53 is taken as sparse.
func denseInts(c *table.ColumnData, numRows int) bool {
	lo, hi, ok := intSpan(c)
	return ok && table.DenseSpread(lo, hi, numRows)
}

// ascendingRows copies an index range's rows into ascending order: one key's
// run already is; several keys' runs are re-sorted through a bitmap over the
// relation's numRows, O(len(rows) + numRows/64). The copy is never nil, so an
// empty range still reads no row.
func ascendingRows(rows []int32, numRows int) []int32 {
	out := make([]int32, 0, len(rows))
	if slices.IsSorted(rows) {
		return append(out, rows...)
	}
	mark := table.NewBitmap(numRows)
	for _, r := range rows {
		mark.Set(int(r))
	}
	return mark.AppendRows(out)
}

// sidewaysPartners lists rel's equi-join conjuncts to relations already scanned
// as (rel's key column, the partner's).
func sidewaysPartners(b *binder, preds []predClass, rel int, scanned []bool) (pairs []joinKeyPair) {
	for _, p := range preds {
		kp := joinKeyPair{relCol: p.leftBind, boundBind: p.rightBind}
		if kp.relCol.rel != rel {
			kp = joinKeyPair{relCol: p.rightBind, boundBind: p.leftBind}
		}
		if p.isEquiJoin && kp.relCol.rel == rel && scanned[kp.boundBind.rel] {
			pairs = append(pairs, kp)
		}
	}
	return pairs
}

// scanRelationsCol is the vectorized scan phase (DESIGN §13 "Scan"): per
// relation, in scanPlan's order, one chooser picks from exact counts the rows
// the compiled filters run over — the relation's narrowest index range, the
// rows sidewaysRows finds reachable from a partner, whichever is under
// 1/sidewaysFrac of the relation and smaller, or else every row in
// morsel-sized selection vectors, zone maps skipping whole morsels. A relation
// whose filters do not compile is scanned a row at a time (scanRelationRows).
func scanRelationsCol(b *binder, preds []predClass, g *guard, span *obs.Span, st *scanStats) ([][]int32, error) {
	n := len(b.tables)
	candidates, scanned := make([][]int32, n), make([]bool, n)
	scans, order, sideways := scanPlan(b, preds)
	for _, rel := range order {
		if faults.Active() {
			if err := faults.Inject(faults.PointEngineScan); err != nil {
				return nil, err
			}
		}
		cs, rs := b.tables[rel].Columns(), &scans[rel]
		limit, indexed := cs.NumRows/sidewaysFrac, rs.indexed(cs.NumRows)
		if indexed {
			limit = len(rs.rows) // a partner's keys must beat the index range
		}
		var sel []int32 // nil: every row
		var kp *joinKeyPair
		if sideways {
			sel, kp = sidewaysRows(b, sidewaysPartners(b, preds, rel, scanned), candidates, limit)
		}
		partner := sel != nil
		if partner {
			st.sideways++
		} else if indexed {
			sel = ascendingRows(rs.rows, cs.NumRows)
		}
		rowsRead := cs.NumRows
		if sel != nil {
			rowsRead = len(sel)
		}
		st.rowsRead += int64(rowsRead)
		if span != nil {
			name, keys := b.refs[rel].Name(), 0
			if kp != nil {
				keys = len(candidates[kp.boundBind.rel])
			}
			switch {
			case partner:
				span.AnnotateNamed("via/", name, b.bindingName(kp.boundBind))
			case indexed:
				span.AnnotateNamed("via/", name, "index "+b.bindingName(binding{rel: rel, col: rs.index.col}))
			default:
				span.AnnotateNamed("via/", name, "full") // a constant boxes without allocating
			}
			span.AnnotateNamed("keys/", name, keys)
			span.AnnotateNamed("rows_read/", name, rowsRead)
		}
		scanned[rel] = true
		var err error
		switch {
		case rs.kernels == nil:
			candidates[rel], err = scanRelationRows(b, rel, relFilters(preds, rel), g)
		case sel != nil || len(rs.kernels) > 0:
			if err = tickChunks(g, len(sel)); err == nil { // sel nil: the full scan ticks per morsel
				candidates[rel], err = scanKernels(rs.kernels, cs.NumRows, sel, g, &st.skipped)
			}
		default:
			// Shared and immutable: candidates are read-only downstream.
			candidates[rel], err = cs.Identity(), tickChunks(g, cs.NumRows)
		}
		if err != nil {
			return nil, err
		}
	}
	return candidates, nil
}

// sidewaysRows picks the partner with the fewest candidates (kp; nil without
// partners) and returns, ascending, the rows the relation's cached join index
// holds for their keys: an inner join emits no other row. sel is nil (take
// another path) unless the keys and the rows they reach are each under limit —
// 1/sidewaysFrac of the relation, or fewer when its own index range is — counted
// before an index is asked for and before a row is read.
func sidewaysRows(b *binder, partners []joinKeyPair, candidates [][]int32, limit int) (sel []int32, kp *joinKeyPair) {
	for i := range partners {
		if kp == nil || len(candidates[partners[i].boundBind.rel]) < len(candidates[kp.boundBind.rel]) {
			kp = &partners[i]
		}
	}
	if kp == nil {
		return nil, nil
	}
	cs, keys := b.tables[kp.relCol.rel].Columns(), candidates[kp.boundBind.rel]
	if len(keys) >= limit {
		return nil, kp
	}
	ix, keyer := joinIndexOf(cs, kp.relCol.col), probeKeyer(b.col(kp.boundBind), b.col(kp.relCol))
	mark := table.NewBitmap(cs.NumRows)
	if reach := reachable(ix, keyer, keys, limit, mark); reach < limit {
		return mark.AppendRows(make([]int32, 0, reach)), kp
	}
	return nil, kp
}

// reachable marks and counts the rows ix holds for the keys of rows, one lookup
// each, giving up once there are limit of them.
func reachable(ix *table.JoinIndex, keyer func(int32) (table.JoinKey, bool), rows []int32, limit int, mark table.Bitmap) (reach int) {
	for _, ri := range rows {
		if k, ok := keyer(ri); ok {
			run := ix.Lookup(k)
			if reach += len(run); reach >= limit {
				break
			}
			for _, row := range run {
				mark.Set(int(row))
			}
		}
	}
	return reach
}

// scanKernels runs compiled filter kernels over a relation: over the ascending
// rows sel (under 1/sidewaysFrac of it), filtered in place, or — sel nil —
// over all nRows morsel by morsel.
func scanKernels(ks []kernel, nRows int, sel []int32, g *guard, skipped *int64) ([]int32, error) {
	if sel != nil {
		for _, k := range ks {
			if sel = k.sel(sel); len(sel) == 0 {
				break
			}
		}
		return sel, nil
	}
	out := []int32{}
	selBuf := make([]int32, min(morselRows, nRows)) // a set's table is often one short morsel
	for m, nm := 0, morselCount(nRows); m < nm; m++ {
		lo := m * morselRows
		hi := min(lo+morselRows, nRows)
		if err := g.tick(hi - lo); err != nil {
			return nil, err
		}
		if pruneMorsel(ks, m) {
			*skipped++
			continue
		}
		keep := runKernels(ks, selBuf, lo, hi)
		if n := len(out) + len(keep); n > cap(out) {
			// Grow once, to what the pass rate so far predicts for the relation,
			// not by doubling: a scan that keeps 30 000 rows allocates them once.
			out = slices.Grow(out, len(keep)+restAtRate(n, hi, nRows))
		}
		out = append(out, keep...)
	}
	return out, nil
}

// restAtRate is how many more rows an operator that emitted n from the first
// done of total input rows will emit from the rest at that rate, and a
// sixteenth over: what a growing output vector reserves instead of doubling.
func restAtRate(n, done, total int) int {
	rest := int64(n) * int64(total-done) / int64(done)
	return int(rest + rest/16)
}

// runKernels filters rows [lo, hi) through ks in buf (of at least hi-lo entries),
// returning the surviving prefix of buf.
func runKernels(ks []kernel, buf []int32, lo, hi int) []int32 {
	sel := buf[:hi-lo]
	for i := range sel {
		sel[i] = int32(lo + i)
	}
	for _, k := range ks {
		if sel = k.sel(sel); len(sel) == 0 {
			break
		}
	}
	return sel
}

// joinStepCol binds relation rel into the batch: index join on typed keys when
// equi-join predicates connect it, cross product otherwise. needed[r] gates
// which relations' columns the output batch materializes (jb.n is exact
// regardless).
func joinStepCol(b *binder, cur *joinedBatch, cand []int32, rel int, joins []predClass, needed []bool, opts Options, g *guard, span *obs.Span) (*joinedBatch, error) {
	if faults.Active() {
		if err := faults.Inject(faults.PointEngineJoin); err != nil {
			return nil, err
		}
	}
	emitBound := make([]int, 0, len(cur.cols))
	for _, r := range cur.boundRels() {
		if needed[r] {
			emitBound = append(emitBound, r)
		}
	}
	relNeeded := needed[rel]

	if len(joins) == 0 {
		if cur.n*len(cand) > opts.MaxIntermediateRows {
			return nil, fmt.Errorf("%w: cross product of %d x %d rows exceeds limit %d", ErrRowBudget, cur.n, len(cand), opts.MaxIntermediateRows)
		}
		total := cur.n * len(cand)
		out := &joinedBatch{n: total, cols: make([][]int32, len(cur.cols))}
		if len(emitBound) == 0 && !relNeeded {
			return out, tickChunks(g, total)
		}
		for _, r := range emitBound {
			out.cols[r] = make([]int32, 0, total)
		}
		var relCol []int32
		if relNeeded {
			relCol = make([]int32, 0, total)
		}
		for idx := 0; idx < cur.n; idx++ {
			for _, ri := range cand {
				if err := g.tick(1); err != nil {
					return nil, err
				}
				for _, r := range emitBound {
					out.cols[r] = append(out.cols[r], cur.cols[r][idx])
				}
				if relNeeded {
					relCol = append(relCol, ri)
				}
			}
		}
		out.cols[rel] = relCol
		return out, nil
	}

	pairs := joinKeyPairs(joins, rel)
	// The step's output columns: the bound relations still needed, then rel's.
	width := len(emitBound)
	if relNeeded {
		width++
	}
	m, err := newJoinMatcher(b, cur, cand, rel, pairs, width > 0, g)
	if err != nil {
		return nil, err
	}
	if span != nil {
		name, ix := b.refs[rel].Name(), m.ix // an index is immutable once built
		span.AnnotateNamed("index/", name, func() string { return ix.Layout() + ", " + probeKind(ix) })
		span.AnnotateNamed("build_rows/", name, len(cand))
	}
	return probeCol(cur, rel, emitBound, width, m, opts.MaxIntermediateRows, g)
}

// joinKeyPairs orients each equi-join conjunct binding rel: rel's key column,
// and the one on the side already bound.
func joinKeyPairs(joins []predClass, rel int) []joinKeyPair {
	pairs := make([]joinKeyPair, len(joins))
	for i, p := range joins {
		pairs[i] = joinKeyPair{relCol: p.rightBind, boundBind: p.leftBind}
		if p.leftBind.rel == rel {
			pairs[i] = joinKeyPair{relCol: p.leftBind, boundBind: p.rightBind}
		}
	}
	return pairs
}

// projectCol turns the joined batch into the statement's answer. A projection
// of column references and literals cannot fail, so the guard is charged for
// the whole pre-LIMIT batch at once (the ticks and the output-budget charge of
// a row-by-row loop) and no row need exist to be counted (count-only
// execution), answered (a frame caller, Result.Frame) or traced back to its
// base rows (a lineage caller): LIMIT, when nothing sorts after it, just
// shortens the answer. Expression projections evaluate every batch row (any of
// them may raise) and are cut to LIMIT afterwards. On an output-budget trip
// the rows before the trip come back with the error.
func projectCol(b *binder, stmt *sqlparse.Select, jb *joinedBatch, opts Options, countOnly bool, g *guard) (*Result, error) {
	if faults.Active() {
		if err := faults.Inject(faults.PointEngineProject); err != nil {
			return nil, err
		}
	}
	var p *projection
	if !countOnly {
		p = newProjection(b, stmt, jb)
	}
	keep := jb.n
	limited := !sortsOutput(stmt) && stmt.Limit >= 0
	var trip error
	if countOnly || p.exprs == nil {
		if err := tickChunks(g, jb.n); err != nil {
			return nil, err
		}
		if trip = g.out(jb.n); trip != nil {
			keep, limited = g.maxOutput, false
		} else if limited && stmt.Limit < keep && (countOnly || opts.frames || opts.lineageOnly) {
			// A caller that wants a table.RowSet still gets the pre-LIMIT rows
			// built and cut afterwards, as before frames existed; DESIGN §13
			// "Answer path" says why that saving waits for a later change.
			keep = stmt.Limit
		}
	}
	// Columns and literals that nothing sorts (or that tripped the budget
	// before anything could) need no row built for a frame or a lineage.
	unbuilt := p != nil && p.exprs == nil && (trip != nil || !sortsOutput(stmt))
	switch {
	case countOnly:
		return &Result{Count: keep}, trip
	case opts.frames && unbuilt:
		return &Result{Frame: p.frame(keep)}, trip
	case opts.lineageOnly && unbuilt:
		lineage, err := batchLineage(b, jb, keep, g)
		if err != nil {
			return nil, err
		}
		return &Result{Lineage: lineage, Count: keep}, trip
	}
	out, lineage, err := p.materialize(keep, opts.TrackLineage, g)
	if out == nil {
		return nil, err
	}
	if err == nil {
		if limited && stmt.Limit < len(out.Rows) {
			out.Rows = out.Rows[:stmt.Limit]
			if lineage != nil {
				lineage = lineage[:stmt.Limit]
			}
		}
		err = trip
	}
	return &Result{Table: out, Lineage: lineage}, err
}

// batchLineage records, for each of the batch's first n tuples, the
// base-table row of every relation behind it: the relation names are lowered
// once, and the n tuples share one allocation. g, when not nil, is polled once
// per morsel (a caller that has built the rows has polled it already).
func batchLineage(b *binder, jb *joinedBatch, n int, g *guard) ([][]table.RowID, error) {
	names := make([]string, len(b.tables))
	for rel, t := range b.tables {
		names[rel] = strings.ToLower(t.Name)
	}
	w := len(names)
	ids := make([]table.RowID, n*w)
	lineage := make([][]table.RowID, n)
	for idx := range lineage {
		if idx%morselRows == 0 {
			if err := g.poll(); err != nil {
				return nil, err
			}
		}
		row := ids[idx*w : (idx+1)*w : (idx+1)*w]
		for rel, name := range names {
			ri := int32(-1)
			if c := jb.cols[rel]; c != nil {
				ri = c[idx]
			}
			row[rel] = table.RowID{Table: name, Row: int(ri)}
		}
		lineage[idx] = row
	}
	return lineage, nil
}
