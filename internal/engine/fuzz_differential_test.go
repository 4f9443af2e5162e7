package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"asqprl/internal/faults"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// This file holds the seeded differential fuzz harness for the columnar
// execution core: every generated statement is executed by the legacy
// row-at-a-time engine (the reference) and by the columnar engine at
// parallelism 1 and 8, and the three runs must agree byte for byte — same
// result fingerprint (schema, row keys, lineage) on success, same error
// string and guard kind on failure, and identical partial results when an
// output budget trips mid-projection. The generated data deliberately covers
// the hard parity corners: NULLs everywhere, NaN and integral floats (which
// Value.Compare and Value.Key treat specially), dictionary strings,
// kind-mismatched (Mixed) columns that force the row fallback, and tables
// large enough to engage the parallel morsel paths.

// fuzzVocab is the string vocabulary; small so dictionary codes repeat.
var fuzzVocab = []string{"drama", "comedy", "noir", "sci-fi", "doc"}

// fuzzSparse spreads the sp key columns far beyond the join index's dense
// range (table.JoinIndex picks its hash layout for them).
const fuzzSparse = 1_000_003

// fuzzDB builds a two-table database from rng. About one run in six (and
// every run with forceBig) is big enough (> parallelMinRows) to exercise the
// parallel scan/probe/project paths; the rest stay small so many statements
// run per fuzz cycle.
func fuzzDB(rng *rand.Rand, forceBig bool) *table.Database {
	nA := 30 + rng.Intn(50)
	if rng.Intn(6) == 0 || forceBig {
		nA = parallelMinRows + 500 + rng.Intn(1000)
	}
	mixed := rng.Intn(4) == 0 // poison fa.mx with a string cell → Mixed column
	fa := table.New("fa", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "num", Kind: table.KindInt},
		{Name: "val", Kind: table.KindFloat},
		{Name: "cat", Kind: table.KindString},
		{Name: "flag", Kind: table.KindBool},
		{Name: "mx", Kind: table.KindInt},
		{Name: "sp", Kind: table.KindInt},
	})
	for i := 0; i < nA; i++ {
		num := table.NewInt(int64(rng.Intn(20) - 5))
		if rng.Intn(10) == 0 {
			num = table.Null
		}
		var val table.Value
		switch rng.Intn(8) {
		case 0:
			val = table.Null
		case 1:
			val = table.NewFloat(math.NaN())
		case 2:
			val = table.NewFloat(float64(rng.Intn(8))) // integral float
		default:
			val = table.NewFloat(float64(rng.Intn(16)) - 7.5)
		}
		cat := table.NewString(fuzzVocab[rng.Intn(len(fuzzVocab))])
		if rng.Intn(8) == 0 {
			cat = table.Null
		}
		flag := table.NewBool(rng.Intn(2) == 0)
		if rng.Intn(8) == 0 {
			flag = table.Null
		}
		mx := table.NewInt(int64(rng.Intn(10)))
		if mixed && rng.Intn(16) == 0 {
			mx = table.NewString("oops")
		}
		sp := table.NewInt(int64(i) * fuzzSparse)
		if i%7 == 3 {
			sp = table.Null
		}
		fa.AppendRow(table.Row{table.NewInt(int64(i)), num, val, cat, flag, mx, sp})
	}
	nB := 20 + rng.Intn(40)
	if nA > parallelMinRows {
		nB = parallelMinRows + rng.Intn(500)
	}
	fb := table.New("fb", table.Schema{
		{Name: "fa_id", Kind: table.KindInt},
		{Name: "cat", Kind: table.KindString},
		{Name: "w", Kind: table.KindInt},
		{Name: "sp", Kind: table.KindInt},
	})
	for i := 0; i < nB; i++ {
		w := table.NewInt(int64(rng.Intn(8)))
		if rng.Intn(12) == 0 {
			w = table.Null
		}
		faID := int64(rng.Intn(nA + 5)) // some dangling keys
		fb.AppendRow(table.Row{
			table.NewInt(faID),
			table.NewString(fuzzVocab[rng.Intn(len(fuzzVocab))]),
			w,
			table.NewInt(faID * fuzzSparse),
		})
	}
	db := table.NewDatabase()
	db.Add(fa)
	db.Add(fb)
	return db
}

func fuzzNot(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return "NOT "
	}
	return ""
}

// fuzzPred generates a predicate over fa's columns, qualified with prefix p
// ("" or "a."). It covers every kernel family: ordered comparisons on ints
// and floats (the NaN parity corner), BETWEEN, IN, LIKE, IS [NOT] NULL,
// truthy bool columns, Mixed-column comparisons (row fallback), and
// NOT/AND/OR composition.
func fuzzPred(rng *rand.Rand, p string, depth int) string {
	if depth > 0 && rng.Intn(3) == 0 {
		op := " AND "
		if rng.Intn(2) == 0 {
			op = " OR "
		}
		s := "(" + fuzzPred(rng, p, depth-1) + op + fuzzPred(rng, p, depth-1) + ")"
		if rng.Intn(4) == 0 {
			s = "NOT " + s
		}
		return s
	}
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	op := ops[rng.Intn(len(ops))]
	switch rng.Intn(9) {
	case 0:
		return fmt.Sprintf("%snum %s %d", p, op, rng.Intn(20)-5)
	case 1:
		lits := []string{"2.5", "-0.5", "4", "7.25", "0"}
		return fmt.Sprintf("%sval %s %s", p, op, lits[rng.Intn(len(lits))])
	case 2:
		lo := rng.Intn(10) - 2
		return fmt.Sprintf("%snum %sBETWEEN %d AND %d", p, fuzzNot(rng), lo, lo+rng.Intn(8))
	case 3:
		return fmt.Sprintf("%sval %sBETWEEN -1 AND %d", p, fuzzNot(rng), rng.Intn(8))
	case 4:
		return fmt.Sprintf("%scat %sIN ('drama', 'noir')", p, fuzzNot(rng))
	case 5:
		pats := []string{"'d%'", "'%a'", "'_o%'", "'comedy'"}
		return fmt.Sprintf("%scat %sLIKE %s", p, fuzzNot(rng), pats[rng.Intn(len(pats))])
	case 6:
		cols := []string{"num", "val", "cat", "flag"}
		return fmt.Sprintf("%s%s IS %sNULL", p, cols[rng.Intn(len(cols))], fuzzNot(rng))
	case 7:
		if rng.Intn(2) == 0 {
			return p + "flag"
		}
		return "NOT " + p + "flag"
	default:
		return fmt.Sprintf("%smx %s %d", p, op, rng.Intn(10))
	}
}

// fuzzSQL generates one statement: single-table SPJ (with DISTINCT, ORDER BY,
// LIMIT), two- and three-way joins on int, string, and float-vs-int keys, and
// grouped aggregates with HAVING.
func fuzzSQL(rng *rand.Rand) string {
	switch rng.Intn(5) {
	case 0: // single-table select-project
		sel := "*"
		switch rng.Intn(3) {
		case 1:
			sel = "id, cat, val"
		case 2:
			sel = "num, flag"
		}
		distinct := ""
		if rng.Intn(4) == 0 {
			distinct = "DISTINCT "
		}
		q := "SELECT " + distinct + sel + " FROM fa"
		if rng.Intn(5) > 0 {
			q += " WHERE " + fuzzPred(rng, "", 2)
		}
		if rng.Intn(3) == 0 {
			cols := []string{"id", "num", "val", "cat"}
			q += " ORDER BY " + cols[rng.Intn(len(cols))]
			if rng.Intn(2) == 0 {
				q += " DESC"
			}
		}
		if rng.Intn(3) == 0 {
			q += fmt.Sprintf(" LIMIT %d", rng.Intn(25))
		}
		return q
	case 1: // two-way join on int, string, or float-vs-int keys
		on := "a.id = b.fa_id"
		switch rng.Intn(3) {
		case 1:
			on = "a.cat = b.cat"
		case 2:
			on = "a.val = b.w" // float build side: integral-float/NaN keys
		}
		q := "SELECT a.id, a.cat, b.w FROM fa a JOIN fb b ON " + on
		if rng.Intn(2) == 0 {
			q += " WHERE " + fuzzPred(rng, "a.", 1)
		}
		if rng.Intn(3) == 0 {
			q += " ORDER BY a.id LIMIT 30"
		}
		return q
	case 2: // composite join key
		q := "SELECT a.id, b.w FROM fa a JOIN fb b ON a.id = b.fa_id AND a.cat = b.cat"
		if rng.Intn(2) == 0 {
			q += " WHERE " + fuzzPred(rng, "a.", 1)
		}
		return q
	case 3: // grouped aggregate
		q := "SELECT cat, COUNT(*), SUM(num), AVG(val), MIN(val) FROM fa"
		if rng.Intn(2) == 0 {
			q += " WHERE " + fuzzPred(rng, "", 1)
		}
		q += " GROUP BY cat"
		if rng.Intn(3) == 0 {
			q += " HAVING COUNT(*) > 1"
		}
		return q
	default: // three-way join
		q := "SELECT a.id, c.w FROM fa a JOIN fb b ON a.id = b.fa_id JOIN fb c ON b.w = c.w"
		if rng.Intn(2) == 0 {
			q += " WHERE " + fuzzPred(rng, "a.", 1)
		}
		return q
	}
}

// fuzzJoinShapes are the joins a negative fuzz seed forces (see
// FuzzRowVsColumnar), one per situation the index-backed join step
// distinguishes: which layout the build column's table.JoinIndex takes, whether
// the build relation is unfiltered (no candidate bitmap), filtered or filtered
// to nothing, which kind of probe key meets which kind of indexed column, how
// many key pairs are compared after the indexed one, and whether the cached
// index fits the step or it falls back to hashing the candidates. The build
// side is the relation joined in, i.e. the later one in FROM order.
var fuzzJoinShapes = []string{
	// Dense int index: unfiltered, filtered to empty (w is 0..7), filtered.
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.id = b.fa_id",
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.id = b.fa_id WHERE b.w > 100",
	"SELECT a.id, b.cat FROM fa a JOIN fb b ON a.id = b.fa_id WHERE b.w < 4",
	// NULL keys on both sides.
	"SELECT a.id, b.fa_id FROM fa a JOIN fb b ON a.num = b.w WHERE a.id < 40",
	// Float probe keys (integral, fractional, NaN) into a dense int index, and
	// int probe keys into a float column's hash index.
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.val = b.w WHERE a.id < 40",
	"SELECT a.id, b.w FROM fb b JOIN fa a ON b.w = a.val WHERE b.fa_id < 40",
	"SELECT a.id, b.w FROM fb b JOIN fa a ON b.w = a.val WHERE b.fa_id < 40 AND a.flag",
	// String keys across two dictionaries; bool keys.
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.cat = b.cat WHERE a.id < 20",
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.cat = b.cat WHERE a.id < 20 AND b.cat <> 'noir'",
	"SELECT a.id, x.id FROM fa a JOIN fa x ON a.flag = x.flag WHERE a.id < 10 AND x.num = 3",
	// Two to four key pairs: the most selective is indexed, the rest compared.
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.id = b.fa_id AND a.cat = b.cat",
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.id = b.fa_id AND a.cat = b.cat AND a.num = b.w",
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.sp = b.sp AND a.id = b.fa_id AND a.cat = b.cat AND a.num = b.w WHERE b.w < 6",
	// Sparse int keys (hash layout): unfiltered, filtered, three-way.
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.sp = b.sp",
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.sp = b.sp WHERE b.w >= 3",
	"SELECT a.id, c.w FROM fa a JOIN fb b ON a.id = b.fa_id JOIN fb c ON b.sp = c.sp WHERE b.w < 6 AND c.cat = 'noir'",
	// Keys no single-column index serves: a selective filter behind a
	// low-cardinality key, and unselective pairs that are selective together
	// (the step gives up on the cached index and hashes the candidates).
	"SELECT a.id, b.fa_id FROM fa a JOIN fb b ON a.cat = b.cat WHERE b.fa_id < 3",
	"SELECT a.id, b.fa_id FROM fa a JOIN fb b ON a.cat = b.cat AND a.num = b.w",
	"SELECT a.id, b.fa_id FROM fa a JOIN fb b ON a.num = b.w AND a.cat = b.cat WHERE b.fa_id < 30",
	// A key column that is Mixed in one database in four: byte-key fallback.
	"SELECT a.id, b.w FROM fb b JOIN fa a ON b.w = a.mx WHERE b.fa_id < 40",
}

// fuzzJoinSQL is fuzzJoinShapes[shape], half the time narrowed by a random
// predicate over a (fa is aliased a in every shape).
func fuzzJoinSQL(rng *rand.Rand, shape int) string {
	q := fuzzJoinShapes[shape]
	if rng.Intn(2) == 0 {
		return q
	}
	if strings.Contains(q, " WHERE ") {
		return q + " AND " + fuzzPred(rng, "a.", 1)
	}
	return q + " WHERE " + fuzzPred(rng, "a.", 1)
}

// fuzzLimitShapes are the statements a seed at or below fuzzLimitSeed forces
// (see FuzzRowVsColumnar), each run with LIMIT 0, 1, a few and more than any
// result: what the columnar tail distinguishes on the way from the joined batch
// to the answer. One to three relations; a projection of column references,
// literals and * stays a frame of row-id vectors that LIMIT merely shortens,
// DISTINCT / ORDER BY / an expression in the select list materialize rows
// first, and the aggregate never had a batch-shaped answer.
var fuzzLimitShapes = []string{
	"SELECT * FROM fa",
	"SELECT id, 7, cat, 'lit', NULL, val FROM fa WHERE num > 2",
	"SELECT num + 1, id FROM fa WHERE flag",
	"SELECT 10 / num, id FROM fa", // evaluation error at a data-dependent row
	"SELECT DISTINCT cat, flag FROM fa",
	"SELECT id, val FROM fa ORDER BY val DESC, id",
	"SELECT DISTINCT num FROM fa ORDER BY num",
	"SELECT * FROM fa a JOIN fb b ON a.id = b.fa_id",
	"SELECT b.w, 1.5, a.cat FROM fa a JOIN fb b ON a.id = b.fa_id WHERE b.w < 6",
	"SELECT DISTINCT a.cat, b.w FROM fa a JOIN fb b ON a.id = b.fa_id",
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.id = b.fa_id ORDER BY b.w, a.id",
	"SELECT a.id, true, c.w FROM fa a JOIN fb b ON a.id = b.fa_id JOIN fb c ON b.sp = c.sp",
	"SELECT * FROM fa a JOIN fb b ON a.id = b.fa_id JOIN fb c ON b.sp = c.sp WHERE c.w > 2",
	"SELECT cat, COUNT(*) FROM fa GROUP BY cat",
}

var fuzzLimits = []int{0, 1, 7, 1 << 30}

// fuzzLimitSeed - k pins a run to fuzzLimitShapes[k % len] with
// fuzzLimits[k / len % 4], on a parallel-scale database when k / len / 4 is odd.
const fuzzLimitSeed = -1 << 32

// fuzzLimitModes is the guard situation of each of a limit seed's statements:
// none, pre-canceled, output budget below the pre-LIMIT count, injected fault,
// output budget above it, tiny intermediate budget (cases of the switch in
// FuzzRowVsColumnar).
var fuzzLimitModes = [6]int{4, 0, 1, 3, 8, 2}

// fuzzRun executes stmt under one engine configuration. faultPoint, when
// non-empty, arms a fresh deterministic error injection (identical across the
// compared runs — the schedules carry per-run hit counters, so each run gets
// its own).
func fuzzRun(ctx context.Context, db *table.Database, stmt *sqlparse.Select, opts Options, faultPoint string, faultAfter int) (*Result, error) {
	if faultPoint != "" {
		faults.Enable(faults.NewSchedule(1, faults.Injection{
			Point: faultPoint,
			Kind:  faults.KindError,
			After: faultAfter,
		}))
		defer faults.Disable()
	}
	switch {
	case opts.countOnly:
		n, err := CountContext(ctx, db, stmt, opts)
		return &Result{Count: n}, err
	case opts.frames:
		res, err := ExecuteFrameContext(ctx, db, stmt, opts)
		if res != nil {
			if res.Table != nil || res.Frame == nil || res.Lineage != nil {
				return nil, fmt.Errorf("ExecuteFrameContext answered %+v, want a frame alone", res)
			}
			res.Table = res.Frame.Table()
		}
		return res, err
	}
	return ExecuteWithContext(ctx, db, stmt, opts)
}

// fuzzCompare asserts run B matches the reference run A exactly: same
// success/failure, same error string and guard kind, same (possibly partial)
// result fingerprint.
func fuzzCompare(t *testing.T, sql, label string, resA *Result, errA error, resB *Result, errB error) {
	t.Helper()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("%s: error mismatch for %q\nreference: %v\n%s: %v", label, sql, errA, label, errB)
	}
	if errA != nil {
		if errA.Error() != errB.Error() || GuardKind(errA) != GuardKind(errB) {
			t.Fatalf("%s: error diverges for %q\nreference: %v (guard %q)\n%s: %v (guard %q)",
				label, sql, errA, GuardKind(errA), label, errB, GuardKind(errB))
		}
	}
	if (resA == nil) != (resB == nil) {
		t.Fatalf("%s: partial-result presence mismatch for %q (reference nil=%v, got nil=%v, err=%v)",
			label, sql, resA == nil, resB == nil, errA)
	}
	if resA != nil && resA.Table == nil {
		if resA.Count != resB.Count {
			t.Fatalf("%s: count diverges for %q: reference %d, got %d", label, sql, resA.Count, resB.Count)
		}
	} else if resA != nil {
		if fa, fb := resultFingerprint(resA), resultFingerprint(resB); fa != fb {
			t.Fatalf("%s: result diverges for %q\nreference:\n%.600s\n%s:\n%.600s", label, sql, fa, label, fb)
		}
	}
}

// FuzzRowVsColumnar is the differential harness: seed → random database +
// statements → row engine vs columnar engine at parallelism 1 and 8, as a
// table (ExecuteWithContext), as a frame (ExecuteFrameContext) and as a count
// (CountContext), under normal execution, pre-canceled contexts, output and
// intermediate row budgets, and injected operator faults. A seed >= 0 draws
// its statements from fuzzSQL; seed -1-k pins all of them to
// fuzzJoinShapes[k % len], on a parallel-scale database when k / len is odd,
// and seed fuzzLimitSeed-k to a fuzzLimitShapes statement and LIMIT under each
// of fuzzLimitModes, so the corpus reaches every shape at both sizes by
// construction.
func FuzzRowVsColumnar(f *testing.F) {
	for s := int64(0); s < 24; s++ {
		f.Add(s)
	}
	for k := 0; k < 2*len(fuzzJoinShapes); k++ {
		f.Add(int64(-1 - k))
	}
	for k := 0; k < 2*len(fuzzLimits)*len(fuzzLimitShapes); k++ {
		f.Add(int64(fuzzLimitSeed - k))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		shape, limitSQL, forceBig := -1, "", false
		if seed <= fuzzLimitSeed {
			k := uint64(fuzzLimitSeed - seed)
			nShapes, nLimits := uint64(len(fuzzLimitShapes)), uint64(len(fuzzLimits))
			limitSQL = fmt.Sprintf("%s LIMIT %d", fuzzLimitShapes[k%nShapes], fuzzLimits[k/nShapes%nLimits])
			forceBig = k/nShapes/nLimits%2 == 1
		} else if seed < 0 {
			k := uint64(-(seed + 1))
			shape = int(k % uint64(len(fuzzJoinShapes)))
			forceBig = k/uint64(len(fuzzJoinShapes))%2 == 1
		}
		db := fuzzDB(rng, forceBig)
		for si := 0; si < 6; si++ {
			sql, mode := limitSQL, rng.Intn(8)
			switch {
			case limitSQL != "":
				mode = fuzzLimitModes[si]
			case shape >= 0:
				sql = fuzzJoinSQL(rng, shape)
			default:
				sql = fuzzSQL(rng)
			}
			stmt, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatalf("generator produced unparsable SQL %q: %v", sql, err)
			}
			ctx := context.Background()
			// Always bound join intermediates: low-cardinality join keys on
			// the big-table cases can fan out to millions of rows, and a
			// budget trip is itself a compared outcome (same error string on
			// every path), so capping keeps the harness fast without losing
			// coverage.
			base := Options{TrackLineage: true, MaxIntermediateRows: 100_000}
			faultPoint, faultAfter := "", 0
			switch mode {
			case 0: // cooperative cancellation: already-canceled context
				c, cancel := context.WithCancel(context.Background())
				cancel()
				ctx = c
			case 1: // output row budget → partial results + ErrRowBudget
				base.MaxOutputRows = 1 + rng.Intn(5)
			case 2: // tiny intermediate row budget on the join path
				base.MaxIntermediateRows = 1 + rng.Intn(10)
			case 3: // injected operator fault
				points := []string{faults.PointEngineScan, faults.PointEngineJoin, faults.PointEngineProject}
				faultPoint = points[rng.Intn(len(points))]
				faultAfter = rng.Intn(2)
			case 8: // output row budget no result reaches
				base.MaxOutputRows = 1 << 30
			}

			rowOpts := base
			rowOpts.UseRowEngine = true
			rowOpts.Parallelism = -1
			refRes, refErr := fuzzRun(ctx, db, stmt, rowOpts, faultPoint, faultAfter)

			colSerial := base
			colSerial.Parallelism = -1
			res1, err1 := fuzzRun(ctx, db, stmt, colSerial, faultPoint, faultAfter)
			fuzzCompare(t, sql, "columnar-serial", refRes, refErr, res1, err1)

			colPar := base
			colPar.Parallelism = 8
			res8, err8 := fuzzRun(ctx, db, stmt, colPar, faultPoint, faultAfter)
			fuzzCompare(t, sql, "columnar-parallel-8", refRes, refErr, res8, err8)

			// A frame is the same answer without lineage, whether its rows
			// were ever built or not.
			frameRef := refRes
			if refRes != nil {
				frameRef = &Result{Table: refRes.Table}
			}
			for _, par := range []int{-1, 8} {
				frames := base
				frames.frames, frames.Parallelism = true, par
				resF, errF := fuzzRun(ctx, db, stmt, frames, faultPoint, faultAfter)
				fuzzCompare(t, sql, fmt.Sprintf("columnar-frame-%d", par), frameRef, refErr, resF, errF)
			}

			// CountContext must agree with the row engine whether or not the
			// columnar count-only specialization applies, guards included.
			rowCount, colCount := rowOpts, colPar
			rowCount.countOnly, colCount.countOnly = true, true
			rc, rcErr := fuzzRun(ctx, db, stmt, rowCount, faultPoint, faultAfter)
			cc, ccErr := fuzzRun(ctx, db, stmt, colCount, faultPoint, faultAfter)
			fuzzCompare(t, sql, "columnar-count", rc, rcErr, cc, ccErr)
		}
	})
}
