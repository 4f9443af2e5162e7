package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// Morsel-driven parallelism (after the "morsel-driven" scheduling of HyPer):
// each operator partitions its input row range into fixed-size morsels, a
// small pool of workers pulls morsel indices from a shared atomic cursor, and
// per-morsel outputs are concatenated in morsel order — so the result is
// byte-identical to the serial plan regardless of worker count or scheduling.
const (
	// morselRows is the number of input rows per work unit. It matches
	// guardInterval so one cooperative guard poll per morsel preserves the
	// serial path's cancellation granularity.
	morselRows = 1024
	// parallelMinRows is the input size below which operators stay serial: the
	// size from which two workers beat one by a fifth on the two-core machine
	// BenchmarkParallelCrossover was read on (DESIGN §13 "Parallel gate"). Below
	// it, starting and joining the workers costs more than the second one saves.
	parallelMinRows = 128 * morselRows
)

// parallelRows is the input size from which an operator runs its workers.
func (o Options) parallelRows() int {
	if o.minParallelRows > 0 {
		return o.minParallelRows
	}
	return parallelMinRows
}

// workers resolves Options.Parallelism to an effective worker count:
// 0 means all CPUs, anything below 1 means serial.
func (o Options) workers() int {
	if o.Parallelism == 0 {
		return runtime.NumCPU()
	}
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

// morselCount returns the number of morsels covering n input rows.
func morselCount(n int) int {
	return (n + morselRows - 1) / morselRows
}

// forEachMorsel runs fn(m, lo, hi) over every morsel of n input rows using up
// to workers goroutines. The first error in *morsel order* is returned (not
// the first in wall-clock order), so error selection is as deterministic as
// the work that was attempted; later morsels are skipped once any morsel
// fails.
func forEachMorsel(workers, n int, fn func(m, lo, hi int) error) error {
	morsels := morselCount(n)
	if workers > morsels {
		workers = morsels
	}
	errs := make([]error, morsels)
	var cursor atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m := int(cursor.Add(1)) - 1
				if m >= morsels || aborted.Load() {
					return
				}
				lo := m * morselRows
				hi := lo + morselRows
				if hi > n {
					hi = n
				}
				if err := fn(m, lo, hi); err != nil {
					errs[m] = err
					aborted.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// scanFilterParallel evaluates the per-relation filters over rel's rows with
// a worker pool, returning kept row indices in row order. Each worker polls
// the shared guard once per morsel (read-only, hence safe concurrently),
// matching the serial path's one-poll-per-guardInterval-rows cadence.
func scanFilterParallel(b *binder, rel int, filters []sqlparse.Expr, g *guard, workers int) ([]int32, error) {
	rows := b.tables[rel].Rows
	n := len(rows)
	nRel := len(b.tables)
	keeps := make([][]int32, morselCount(n))
	err := forEachMorsel(workers, n, func(m, lo, hi int) error {
		if err := g.poll(); err != nil {
			return err
		}
		probe := make(joinedRow, nRel)
		for i := range probe {
			probe[i] = -1
		}
		keep := make([]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			probe[rel] = int32(i)
			ok := true
			for _, f := range filters {
				v, err := evalExpr(f, evalEnv{b: b, row: probe})
				if err != nil {
					return err
				}
				if v.IsNull() || !truthy(v) {
					ok = false
					break
				}
			}
			if ok {
				keep = append(keep, int32(i))
			}
		}
		keeps[m] = keep
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, k := range keeps {
		total += len(k)
	}
	out := make([]int32, 0, total)
	for _, k := range keeps {
		out = append(out, k...)
	}
	return out, nil
}

// probeParallel runs the probe phase of a hash join over the current
// intermediate rows with a worker pool. The build table is shared read-only;
// per-morsel output slices are concatenated in morsel order so the output is
// identical to the serial probe. Intermediate-row accounting is folded into a
// shared atomic counter: the budget trips if and only if the total emitted
// rows exceed the limit, exactly as in the serial path.
func probeParallel(b *binder, current []joinedRow, rel int, pairs []joinKeyPair, build map[string]*[]int32, opts Options, g *guard, workers int) ([]joinedRow, error) {
	n := len(current)
	outs := make([][]joinedRow, morselCount(n))
	var produced atomic.Int64
	limit := int64(opts.MaxIntermediateRows)
	err := forEachMorsel(workers, n, func(m, lo, hi int) error {
		if err := g.poll(); err != nil {
			return err
		}
		var kb []byte
		out := make([]joinedRow, 0, hi-lo)
		since := 0
		for _, jr := range current[lo:hi] {
			kb = kb[:0]
			null := false
			for _, kp := range pairs {
				ri := jr[kp.boundBind.rel]
				v := b.tables[kp.boundBind.rel].Rows[ri][kp.boundBind.col]
				if v.IsNull() {
					null = true
					break
				}
				kb = v.AppendKey(kb)
				kb = append(kb, 0x1e)
			}
			if null {
				continue
			}
			bucket := build[string(kb)]
			if bucket == nil {
				continue
			}
			for _, ri := range *bucket {
				if since++; since >= guardInterval {
					since = 0
					if err := g.poll(); err != nil {
						return err
					}
				}
				nr := make(joinedRow, len(jr))
				copy(nr, jr)
				nr[rel] = ri
				out = append(out, nr)
				if produced.Add(1) > limit {
					return fmt.Errorf("%w: join intermediate exceeds limit %d rows", ErrRowBudget, opts.MaxIntermediateRows)
				}
			}
		}
		outs[m] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	merged := make([]joinedRow, 0, total)
	for _, o := range outs {
		merged = append(merged, o...)
	}
	return merged, nil
}

// projectParallel evaluates the SELECT list over joined rows with a worker
// pool, appending per-morsel row (and lineage) slices in morsel order. It is
// only used when no output-row budget is active: a budget trip must return
// exactly the rows produced before it, which is inherently serial.
func projectParallel(b *binder, stmt *sqlparse.Select, items []sqlparse.SelectItem, schema table.Schema, joined []joinedRow, trackLineage bool, g *guard, workers int) (*table.Table, [][]table.RowID, error) {
	n := len(joined)
	nm := morselCount(n)
	rowChunks := make([][]table.Row, nm)
	var lineageChunks [][][]table.RowID
	if trackLineage {
		lineageChunks = make([][][]table.RowID, nm)
	}
	err := forEachMorsel(workers, n, func(m, lo, hi int) error {
		if err := g.poll(); err != nil {
			return err
		}
		rows := make([]table.Row, 0, hi-lo)
		var lineage [][]table.RowID
		if trackLineage {
			lineage = make([][]table.RowID, 0, hi-lo)
		}
		for _, jr := range joined[lo:hi] {
			row, err := projectRow(b, stmt, items, schema, jr)
			if err != nil {
				return err
			}
			rows = append(rows, row)
			if trackLineage {
				lineage = append(lineage, lineageOf(b, jr))
			}
		}
		rowChunks[m] = rows
		if trackLineage {
			lineageChunks[m] = lineage
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	out := table.New("result", schema)
	out.Rows = make([]table.Row, 0, n)
	var lineage [][]table.RowID
	if trackLineage {
		lineage = make([][]table.RowID, 0, n)
	}
	for m := range rowChunks {
		out.Rows = append(out.Rows, rowChunks[m]...)
		if trackLineage {
			lineage = append(lineage, lineageChunks[m]...)
		}
	}
	return out, lineage, nil
}
