package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"asqprl/internal/datagen"
	"asqprl/internal/sqlparse"
)

// testParallelRows is the parallel gate the tests run under
// (Options.minParallelRows): their tables were sized to clear 4 096 rows, the
// gate before it was measured, and stay that size.
const testParallelRows = 4096

// resultFingerprint renders a result into a canonical string: schema, every
// row key in order, and every lineage entry. Two byte-identical results
// produce equal fingerprints and vice versa. The differential harness spends
// most of its time here, so rows and lineage are appended, not formatted.
func resultFingerprint(res *Result) string {
	s := fmt.Appendf(nil, "schema=%v rows=%d\n", res.Table.Schema, res.Table.NumRows())
	for i, r := range res.Table.Rows {
		s = append(r.AppendKey(append(strconv.AppendInt(s, int64(i), 10), ": "...)), '\n')
	}
	for i, lin := range res.Lineage {
		s = append(strconv.AppendInt(append(s, "lin "...), int64(i), 10), ": ["...)
		for _, id := range lin {
			s = append(strconv.AppendInt(append(append(s, id.Table...), ':'), int64(id.Row), 10), ' ')
		}
		s = append(s, "]\n"...)
	}
	return string(s)
}

// TestParallelMatchesSerial checks the tentpole determinism property: for
// every query shape, two and eight workers produce byte-identical rows and
// lineage to the serial path, under several GOMAXPROCS settings. The scale is
// chosen so the candidate scans and the projections exceed testParallelRows
// and actually take the parallel paths (the join probe has none).
func TestParallelMatchesSerial(t *testing.T) {
	db := datagen.IMDB(0.3, 1)
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for name, sql := range benchQueries {
				stmt := sqlparse.MustParse(sql)
				serial, err := ExecuteWith(db, stmt, Options{TrackLineage: true, Parallelism: -1})
				if err != nil {
					t.Fatalf("%s serial: %v", name, err)
				}
				for _, workers := range []int{2, 8} {
					parallel, err := ExecuteWith(db, stmt, Options{TrackLineage: true, Parallelism: workers, minParallelRows: testParallelRows})
					if err != nil {
						t.Fatalf("%s parallel: %v", name, err)
					}
					if sf, pf := resultFingerprint(serial), resultFingerprint(parallel); sf != pf {
						t.Errorf("%s: %d workers' result diverges from serial\nserial:\n%.400s\nparallel:\n%.400s", name, workers, sf, pf)
					}
				}
			}
		})
	}
}

// TestParallelIntermediateBudget checks that the join intermediate budget trips
// ErrRowBudget at every worker count: the columnar probe settles it per chunk
// on one goroutine, the row engine's parallel probe on a shared counter.
func TestParallelIntermediateBudget(t *testing.T) {
	db := datagen.IMDB(0.3, 1)
	stmt := sqlparse.MustParse(benchQueries["HashJoin"])
	for _, par := range []int{-1, 2, 8} {
		for _, rowEngine := range []bool{false, true} {
			_, err := ExecuteWith(db, stmt, Options{MaxIntermediateRows: 10, Parallelism: par, minParallelRows: testParallelRows, UseRowEngine: rowEngine})
			if !errors.Is(err, ErrRowBudget) {
				t.Errorf("parallelism %d (row engine: %v): err = %v, want ErrRowBudget", par, rowEngine, err)
			}
		}
	}
}

// TestParallelDeadlineAndCancel checks that an expired deadline and a
// canceled context surface as the same typed errors on the parallel paths.
func TestParallelDeadlineAndCancel(t *testing.T) {
	db := datagen.IMDB(0.3, 1)
	stmt := sqlparse.MustParse(benchQueries["ThreeWay"])

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	for _, workers := range []int{2, 8} {
		opts := Options{Parallelism: workers, minParallelRows: testParallelRows}
		if _, err := ExecuteWithContext(ctx, db, stmt, opts); !errors.Is(err, ErrDeadline) {
			t.Errorf("expired deadline, %d workers: err = %v, want ErrDeadline", workers, err)
		}
		if _, err := ExecuteWithContext(ctx2, db, stmt, opts); !errors.Is(err, ErrCanceled) {
			t.Errorf("canceled context, %d workers: err = %v, want ErrCanceled", workers, err)
		}
	}
}

// TestParallelOutputBudgetPartialRows checks that an output budget keeps the
// serial projection (the partial rows produced before the trip must be
// returned), even when parallelism is requested.
func TestParallelOutputBudgetPartialRows(t *testing.T) {
	db := datagen.IMDB(0.3, 1)
	stmt := sqlparse.MustParse("SELECT * FROM title")
	res, err := ExecuteWith(db, stmt, Options{MaxOutputRows: 7, Parallelism: 8, minParallelRows: testParallelRows})
	if !errors.Is(err, ErrRowBudget) {
		t.Fatalf("err = %v, want ErrRowBudget", err)
	}
	if res == nil || res.Table.NumRows() != 7 {
		t.Fatalf("partial rows = %v, want exactly 7", res)
	}
	serial, serr := ExecuteWith(db, stmt, Options{MaxOutputRows: 7, Parallelism: -1})
	if !errors.Is(serr, ErrRowBudget) {
		t.Fatalf("serial err = %v, want ErrRowBudget", serr)
	}
	if sf, pf := resultFingerprint(serial), resultFingerprint(res); sf != pf {
		t.Errorf("partial results diverge between serial and parallel settings")
	}
}

// TestForEachMorselOrderedError checks that the first error in morsel order
// wins regardless of worker interleaving.
func TestForEachMorselOrderedError(t *testing.T) {
	n := morselRows*6 + 17
	err := forEachMorsel(4, n, func(m, lo, hi int) error {
		if m >= 2 {
			return fmt.Errorf("morsel %d failed", m)
		}
		return nil
	})
	if err == nil || err.Error() != "morsel 2 failed" {
		t.Fatalf("err = %v, want the morsel-order-first failure", err)
	}
	if err := forEachMorsel(4, n, func(m, lo, hi int) error { return nil }); err != nil {
		t.Fatalf("clean run: %v", err)
	}
}

// TestMorselPartitionCovers checks the morsel ranges partition [0, n) exactly.
func TestMorselPartitionCovers(t *testing.T) {
	for _, n := range []int{0, 1, morselRows - 1, morselRows, morselRows + 1, 3*morselRows + 5} {
		covered := make([]bool, n)
		err := forEachMorsel(3, n, func(m, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if covered[i] {
					return fmt.Errorf("row %d covered twice", i)
				}
				covered[i] = true
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("n=%d: row %d never covered", n, i)
			}
		}
	}
}

// TestOptionsWorkers checks the Parallelism -> worker-count mapping.
func TestOptionsWorkers(t *testing.T) {
	if w := (Options{Parallelism: 0}).workers(); w != runtime.NumCPU() {
		t.Errorf("default workers = %d, want NumCPU %d", w, runtime.NumCPU())
	}
	if w := (Options{Parallelism: -3}).workers(); w != 1 {
		t.Errorf("negative parallelism workers = %d, want 1", w)
	}
	if w := (Options{Parallelism: 5}).workers(); w != 5 {
		t.Errorf("explicit workers = %d, want 5", w)
	}
}
