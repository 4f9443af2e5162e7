package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"asqprl/internal/faults"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// This file holds the seeded differential fuzz harness for the executor:
// every generated statement is executed by the row-at-a-time reference
// (rowExecute, rowengine_test.go) and by the engine, and the runs must agree
// byte for byte — same result fingerprint (schema, row keys, lineage) on
// success, same error string and guard kind on failure, and identical partial
// results when an output budget trips mid-projection. The one exception
// (fuzzReference): the columnar scan leaves rows unread that join nothing, so a
// join intermediate the reference's budget refuses may fit. The generated data
// deliberately covers the hard parity corners: NULLs everywhere, NaN and
// integral floats (which Value.Compare and Value.Key treat specially),
// dictionary strings, and tables of several morsels and probe chunks.

// fuzzBigRows is the size a big fuzz database's tables exceed: four morsels.
const fuzzBigRows = 4096

// resultFingerprint renders a result into a canonical string: schema, every
// row key in order, and every lineage entry. Two byte-identical results
// produce equal fingerprints and vice versa. The differential harness spends
// most of its time here, so rows and lineage are appended, not formatted.
func resultFingerprint(res *Result) string {
	s := fmt.Appendf(nil, "schema=%v rows=%d\n", res.Table.Schema, res.Table.NumRows())
	for i, r := range res.Table.Rows {
		s = append(r.AppendKey(append(strconv.AppendInt(s, int64(i), 10), ": "...)), '\n')
	}
	return string(appendLineage(s, res.Lineage))
}

// appendLineage appends every lineage entry to s, one line each.
func appendLineage(s []byte, lineage [][]table.RowID) []byte {
	for i, lin := range lineage {
		s = append(strconv.AppendInt(append(s, "lin "...), int64(i), 10), ": ["...)
		for _, id := range lin {
			s = append(strconv.AppendInt(append(append(s, id.Table...), ':'), int64(id.Row), 10), ' ')
		}
		s = append(s, "]\n"...)
	}
	return s
}

// fuzzVocab is the string vocabulary; small so dictionary codes repeat.
var fuzzVocab = []string{"drama", "comedy", "noir", "sci-fi", "doc"}

// fuzzSparse spreads the sp key columns far beyond the join index's dense
// range (table.JoinIndex picks its hash layout for them).
const fuzzSparse = 1_000_003

// fuzzTags is fc.tag's vocabulary: half of it is absent from fuzzVocab, so a
// join of fa.cat or fb.cat with it meets strings the other dictionary lacks.
var fuzzTags = []string{"drama", "noir", "musical", "zzz"}

// fuzzDB builds a three-table database from rng: fa (whose val is integral,
// fractional, -0, ±Inf, NaN — in row 0 always — or NULL), fb keyed to it, and fc
// keyed to it through int (fa_id, repeating and dangling), string (name, over
// two dictionaries that overlap in part) and float (v: integral, fractional,
// NaN) columns. With size 0 about one run in six, and with size 1 or 2 every
// run, is big (> fuzzBigRows: scans of several morsels, probes of several
// chunks); the rest stay small so many statements run per fuzz cycle. In a big database fc is a tenth of fa (size 1, or a coin flip) or
// twice it (size 2), so a scan that takes its keys from a partner
// (scanRelationsCol) finds the selective side among either the smaller or the
// larger relation. nullMx puts NULLs into fa.mx, as one run in four does anyway
// (these are the draws that once wrote a string into it, kept where they were so
// that a seed still generates the database and statements it always did).
// fd is four fixed rows, drawn without rng, whose indexes hold one row per key
// and address keys no row has: flag is false once and never true, k has gaps.
// fa.dn is drawn without rng too: a dense int column with NULLs and negative
// values, out of row order.
func fuzzDB(rng *rand.Rand, size int, nullMx bool) *table.Database {
	nA := 30 + rng.Intn(50)
	if rng.Intn(6) == 0 || size > 0 {
		nA = fuzzBigRows + 500 + rng.Intn(1000)
	}
	nullMx = rng.Intn(4) == 0 || nullMx
	fa := table.New("fa", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "num", Kind: table.KindInt},
		{Name: "val", Kind: table.KindFloat},
		{Name: "cat", Kind: table.KindString},
		{Name: "flag", Kind: table.KindBool},
		{Name: "mx", Kind: table.KindInt},
		{Name: "sp", Kind: table.KindInt},
		{Name: "name", Kind: table.KindString},
		{Name: "dn", Kind: table.KindInt},
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
			if val.Float == 0 && i%2 == 1 {
				val = table.NewFloat(math.Copysign(0, -1)) // -0 keys and sums with 0
			}
		default:
			val = table.NewFloat(float64(rng.Intn(16)) - 7.5)
			if i%5 == 0 && math.Abs(val.Float) == 7.5 {
				val = table.NewFloat(math.Inf(int(val.Float))) // ±Inf: a sum over both is NaN
			}
		}
		if i == 0 {
			val = table.NewFloat(math.NaN()) // the first value a MIN or MAX over fa meets
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
		if nullMx && rng.Intn(16) == 0 {
			mx = table.Null
		}
		sp := table.NewInt(int64(i) * fuzzSparse)
		if i%7 == 3 {
			sp = table.Null
		}
		name := table.NewString(fmt.Sprintf("n%d", i/2))
		if i%9 == 4 {
			name = table.Null
		}
		// dn: nA consecutive values from -nA/2, each once, out of row order (7919
		// is a prime above nA), so a range of it is several runs of a dense index.
		dn := table.NewInt(int64(i*7919%nA - nA/2))
		if i%13 == 6 {
			dn = table.Null
		}
		fa.AppendRow(table.Row{table.NewInt(int64(i)), num, val, cat, flag, mx, sp, name, dn})
	}
	nB := 20 + rng.Intn(40)
	if nA > fuzzBigRows {
		nB = fuzzBigRows + rng.Intn(500)
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
	nC := 10 + rng.Intn(30)
	if nA > fuzzBigRows {
		if nC = nA/10 + rng.Intn(50); size == 2 || size == 0 && rng.Intn(2) == 0 {
			nC = 2*nA + rng.Intn(500)
		}
	}
	fc := table.New("fc", table.Schema{
		{Name: "fa_id", Kind: table.KindInt},
		{Name: "name", Kind: table.KindString},
		{Name: "v", Kind: table.KindFloat},
		{Name: "n", Kind: table.KindInt},
		{Name: "tag", Kind: table.KindString},
	})
	for i := 0; i < nC; i++ {
		faID := rng.Intn(nA + 5)
		name := table.NewString(fmt.Sprintf("n%d", rng.Intn(nA/2+3)))
		v := table.NewFloat(float64(faID))
		n := table.NewInt(int64(rng.Intn(10)))
		switch rng.Intn(6) {
		case 0:
			name, v, n = table.Null, table.Null, table.Null
		case 1:
			name = table.NewString(fmt.Sprintf("x%d", faID)) // in no fa.name
			v = table.NewFloat(float64(faID) + 0.5)
		case 2:
			v = table.NewFloat(math.NaN())
		}
		fc.AppendRow(table.Row{table.NewInt(int64(faID)), name, v, n, table.NewString(fuzzTags[rng.Intn(len(fuzzTags))])})
	}
	fd := table.New("fd", table.Schema{{Name: "flag", Kind: table.KindBool}, {Name: "k", Kind: table.KindInt}})
	fd.AppendRow(table.Row{table.NewBool(false), table.NewInt(2)})
	fd.AppendRow(table.Row{table.Null, table.NewInt(5)})
	fd.AppendRow(table.Row{table.Null, table.NewInt(9)})
	fd.AppendRow(table.Row{table.Null, table.Null})
	db := table.NewDatabase()
	db.Add(fa)
	db.Add(fb)
	db.Add(fc)
	db.Add(fd)
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
// truthy bool columns, comparisons on the sometimes-NULL mx, and NOT/AND/OR
// composition.
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
// LIMIT), two- and three-way joins on int, string, and float-vs-int keys,
// grouped aggregates with HAVING, and joins through fc with a predicate at
// either end (a fuzzSidewaysShapes statement under random filters).
func fuzzSQL(rng *rand.Rand) string {
	switch rng.Intn(6) {
	case 5:
		q := fuzzSidewaysShapes[rng.Intn(len(fuzzSidewaysShapes))]
		if rng.Intn(3) == 0 {
			q = fuzzNarrow(q, fuzzPred(rng, "a.", 1))
		}
		return q
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
	// A key column that holds NULLs in one database in four.
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

// fuzzSidewaysShapes are the joins a seed at or below fuzzSidewaysSeed forces
// (see FuzzRowVsColumnar): what the scan phase's sideways key passing
// distinguishes. Whether a scan takes its keys from a partner depends on the
// table sizes and on how many rows the partner's filters keep, so every shape
// runs on a small database, on a big one where fc is a tenth of fa and on one
// where it is twice fa. Every statement ends in a WHERE clause on fa a, fb b
// or fc c, so a caller can narrow it further with AND.
var fuzzSidewaysShapes = []string{
	// A selective partner on either side of a two-way join, in either FROM
	// order; relation 0 unfiltered and read whole, or through the partner's keys.
	"SELECT a.id, c.n FROM fa a JOIN fc c ON a.id = c.fa_id WHERE c.n = 3",
	"SELECT a.id, c.n FROM fc c JOIN fa a ON a.id = c.fa_id WHERE c.n = 3",
	"SELECT a.id, c.n FROM fa a JOIN fc c ON a.id = c.fa_id WHERE a.num = 3 AND a.val > 0",
	"SELECT a.id, c.n FROM fc c JOIN fa a ON a.id = c.fa_id WHERE a.num = 3",
	"SELECT * FROM fc c JOIN fa a ON c.fa_id = a.id WHERE a.id >= 0",
	"SELECT a.id, c.n FROM fa a JOIN fc c ON a.id = c.fa_id WHERE c.n > 100", // no key at all
	// Duplicate partner keys: fb.fa_id and fc.fa_id both repeat.
	"SELECT b.w, c.n FROM fb b JOIN fc c ON b.fa_id = c.fa_id WHERE c.n = 1",
	"SELECT b.w, c.n FROM fc c JOIN fb b ON b.fa_id = c.fa_id WHERE b.w = 1 AND b.cat = 'noir'",
	// Three-way: a chain through the middle relation, a star around fa, two
	// conjuncts to choose the partner from.
	"SELECT b.w, a.id, c.n FROM fb b JOIN fa a ON b.fa_id = a.id JOIN fc c ON c.fa_id = a.id WHERE b.fa_id < 50",
	"SELECT b.w, a.id, c.n FROM fc c JOIN fa a ON c.fa_id = a.id JOIN fb b ON b.fa_id = a.id WHERE c.n = 2 AND b.w < 4",
	"SELECT b.w, a.id, c.n FROM fa a JOIN fb b ON b.fa_id = a.id JOIN fc c ON c.fa_id = a.id AND c.fa_id = b.fa_id WHERE a.num = 3",
	// Keys: NULLs, float keys (integral, fractional, NaN) against int keys in
	// both directions, strings across two dictionaries, and low-cardinality
	// keys whose runs are too long to be worth reading through.
	"SELECT a.id, c.v FROM fa a JOIN fc c ON a.id = c.v WHERE a.num = 3",
	"SELECT a.id, c.v FROM fc c JOIN fa a ON c.v = a.id WHERE c.n = 3",
	"SELECT a.id, c.name FROM fa a JOIN fc c ON a.name = c.name WHERE c.n = 3",
	"SELECT a.id, c.name FROM fc c JOIN fa a ON a.name = c.name WHERE a.num = 3",
	"SELECT a.id, c.n FROM fa a JOIN fc c ON a.num = c.n WHERE c.fa_id < 3",
	"SELECT a.id, c.tag FROM fa a JOIN fc c ON a.cat = c.tag WHERE c.fa_id < 3",
	// A key column with NULLs among its keys (these shapes put them into fa.mx),
	// alone and beside a second conjunct.
	"SELECT a.id, c.n FROM fc c JOIN fa a ON c.n = a.mx WHERE c.fa_id < 5",
	"SELECT a.id, c.n FROM fc c JOIN fa a ON c.n = a.mx AND c.fa_id = a.id WHERE c.n = 3",
	// A filter that does not compile, anywhere, turns the pass off: it can
	// raise, here on rows that match no key (c.n > 100 keeps none). The one on
	// fa.mx compiles, NULLs and all, and leaves it on.
	"SELECT a.id, c.n FROM fa a JOIN fc c ON a.id = c.fa_id WHERE c.n + 1 = 4",
	"SELECT a.id, c.n FROM fa a JOIN fc c ON a.id = c.fa_id WHERE c.n = 3 AND a.mx > 2",
	"SELECT a.id, c.n FROM fc c JOIN fa a ON a.id = c.fa_id WHERE c.n > 100 AND a.cat + 1 > 1",
	// Residual predicates: at the last join step the pass stays on; before it
	// the pass is off, and a residual that raises over (c, a) tuples no fb row
	// joins (b.w > 100 keeps none) still raises.
	"SELECT a.id, c.n FROM fa a JOIN fc c ON a.id = c.fa_id WHERE c.n = 3 AND a.num + c.n > 4",
	"SELECT a.id, b.w FROM fc c JOIN fa a ON c.fa_id = a.id JOIN fb b ON b.fa_id = a.id WHERE c.n = 3 AND a.num + b.w > 4",
	"SELECT a.id FROM fc c JOIN fa a ON c.fa_id = a.id JOIN fb b ON b.fa_id = a.id WHERE b.w > 100 AND a.cat + c.n > 1",
	// A cross product's budget error quotes its operands' sizes: pass off.
	"SELECT a.id, b.w FROM fc c, fb b, fa a WHERE c.fa_id = a.id AND a.num = 3",
	// Aggregation over a reduced join.
	"SELECT a.cat, COUNT(*), AVG(c.v) FROM fa a JOIN fc c ON a.id = c.fa_id WHERE a.num = 3 GROUP BY a.cat",
}

// fuzzProbeShapes are the joins a seed at or below fuzzProbeSeed forces (see
// FuzzRowVsColumnar): what the chunk-at-a-time probe distinguishes, each at
// every database size, so that the probing batch is a few dozen rows or several
// chunks. Which kind of key the typed loop reads on the probe side and which the
// index holds; whether the index is dense or hashed, holds one row per key
// (fa.id, fa.sp, fd's columns: the branch-free emission) or runs (every fb and
// fc key); whether the build relation is filtered (a candidate bitmap) or not;
// how many further key pairs are verified, in which written order; and whether
// scanning past rows gives way to the candidates' own index. fa is aliased a in
// every shape.
var fuzzProbeShapes = []string{
	// int = int into a dense index: runs, then one row per key; either side
	// filtered or not.
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.id = b.fa_id",
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.id = b.fa_id WHERE b.w < 3",
	"SELECT a.id, b.w FROM fb b JOIN fa a ON b.fa_id = a.id",
	"SELECT a.id, b.w FROM fb b JOIN fa a ON b.fa_id = a.id WHERE a.num > 2",
	"SELECT a.id, c.n FROM fc c JOIN fa a ON c.fa_id = a.id WHERE a.flag",
	// Sparse ints, the hash layout: runs, one row per key, filtered.
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.sp = b.sp",
	"SELECT a.id, b.w FROM fb b JOIN fa a ON b.sp = a.sp",
	"SELECT a.id, b.w FROM fb b JOIN fa a ON b.sp = a.sp WHERE a.num < 5",
	// int = float in both directions (fc.v: integral, fractional, NaN, NULL;
	// fa.val: those and -0, ±Inf), float = float (NaN joins NaN, -0 joins 0).
	"SELECT a.id, c.v FROM fa a JOIN fc c ON a.id = c.v",
	"SELECT a.id, c.v FROM fc c JOIN fa a ON c.v = a.id",
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.val = b.w WHERE b.fa_id < 50",
	"SELECT a.id, b.w FROM fb b JOIN fa a ON b.w = a.val WHERE a.id < 200",
	"SELECT a.id, c.v FROM fa a JOIN fc c ON a.val = c.v WHERE c.fa_id < 40",
	"SELECT a.id, c.v FROM fc c JOIN fa a ON c.v = a.val WHERE a.num = 3 AND a.id < 1500",
	// string = string over two dictionaries, each holding strings the other lacks.
	"SELECT a.id, c.name FROM fa a JOIN fc c ON a.name = c.name",
	"SELECT a.id, c.name FROM fc c JOIN fa a ON c.name = a.name WHERE a.num < 5",
	"SELECT a.id, c.tag FROM fc c JOIN fa a ON c.tag = a.cat WHERE a.id < 12",
	"SELECT a.id, c.tag FROM fa a JOIN fc c ON a.cat = c.tag WHERE c.fa_id < 4",
	// bool = bool and int = int with NULL keys on both sides.
	"SELECT a.id, x.id FROM fa a JOIN fa x ON a.flag = x.flag WHERE a.id < 10 AND x.num = 3",
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.num = b.w WHERE a.id < 60",
	"SELECT a.id, b.w FROM fb b JOIN fa a ON b.w = a.num WHERE b.fa_id < 60 AND a.id < 300",
	// One row per key in a dense index that addresses keys no row has: a bool
	// column that is never true (its run would start past the last row), ints
	// with gaps; unfiltered and filtered.
	"SELECT a.id, d.k FROM fa a JOIN fd d ON a.flag = d.flag",
	"SELECT a.id, d.k FROM fa a JOIN fd d ON a.flag = d.flag WHERE d.k < 4",
	"SELECT a.id, d.k FROM fa a JOIN fd d ON a.num = d.k",
	"SELECT a.id, d.flag FROM fa a JOIN fd d ON a.num = d.k AND a.flag = d.flag WHERE d.k > 0",
	// Two and three conjuncts in both written orders: runs and verification, one
	// row per key and verification.
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.id = b.fa_id AND a.cat = b.cat",
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.cat = b.cat AND a.id = b.fa_id",
	"SELECT a.id, b.w FROM fb b JOIN fa a ON b.fa_id = a.id AND b.cat = a.cat",
	"SELECT a.id, b.w FROM fb b JOIN fa a ON b.cat = a.cat AND b.fa_id = a.id WHERE a.num > 0",
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.id = b.fa_id AND a.cat = b.cat AND a.num = b.w",
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.num = b.w AND a.cat = b.cat AND a.id = b.fa_id",
	"SELECT a.id, c.n FROM fc c JOIN fa a ON c.fa_id = a.id AND c.name = a.name AND c.v = a.val",
	// Scanning past rows gives way to hashing the candidates: a selective filter
	// behind a low-cardinality key, and pairs selective only together.
	"SELECT a.id, b.fa_id FROM fa a JOIN fb b ON a.cat = b.cat WHERE b.fa_id < 3",
	"SELECT a.id, b.fa_id FROM fa a JOIN fb b ON a.cat = b.cat AND a.num = b.w WHERE b.fa_id < 300",
	"SELECT a.id, b.fa_id FROM fa a JOIN fb b ON a.num = b.w AND a.cat = b.cat WHERE b.fa_id < 30",
	"SELECT a.id, x.id FROM fa a JOIN fa x ON a.cat = x.cat AND a.flag = x.flag WHERE x.num = 7 AND x.val > 3",
	// The second step of a three-way join probes with a batch of two columns.
	"SELECT a.id, b.w, c.n FROM fb b JOIN fa a ON b.fa_id = a.id JOIN fc c ON c.fa_id = a.id AND c.name = a.name",
}

// fuzzProbeSeed - k pins a run to fuzzProbeShapes[k % len] on a database of
// size k / len % 3 (see fuzzDB): each statement under one of fuzzLimitModes,
// then with MaxIntermediateRows at exactly its row count and at one less.
const fuzzProbeSeed = -1 << 56

// fuzzNarrow ANDs pred into q's WHERE clause, giving it one if it has none.
func fuzzNarrow(q, pred string) string {
	kw, at := " WHERE ", len(q)
	if strings.Contains(q, kw) {
		kw = " AND "
	}
	for _, clause := range []string{" GROUP BY ", " ORDER BY "} {
		if i := strings.Index(q, clause); i >= 0 && i < at {
			at = i
		}
	}
	return q[:at] + kw + pred + q[at:]
}

// fuzzAggShapes are the statements a seed at or below fuzzAggSeed forces (see
// FuzzRowVsColumnar): what the columnar aggregate phase distinguishes. How a
// GROUP BY key is encoded, and whether the keys' codes address a table or are
// hashed, depends on the columns' values and on the joined row count, so every
// shape runs at each database size; fa is aliased a in every one.
var fuzzAggShapes = []string{
	// One key per encoding — dictionary codes, int offsets, bools, hashed floats
	// (0 and -0 one group, every NaN one group, ±Inf), and fa.sp, whose range
	// takes offsets in a small database and hashing in a big one — each with a
	// NULL group; COUNT(col) over NULLs, MIN/MAX over strings, bools and floats
	// that start at NaN, SUM/AVG over ints, bools, strings and ±Inf.
	"SELECT a.cat, COUNT(*), COUNT(a.num), SUM(a.num), AVG(a.val), MIN(a.val), MAX(a.val) FROM fa a GROUP BY a.cat",
	"SELECT a.num, COUNT(*), MIN(a.cat), MAX(a.cat), MIN(a.name), AVG(a.num) FROM fa a GROUP BY a.num",
	"SELECT a.flag, COUNT(a.flag), MIN(a.flag), MAX(a.flag), SUM(a.flag), AVG(a.cat), MIN(*) FROM fa a GROUP BY a.flag",
	"SELECT a.val, COUNT(*), SUM(a.val), MIN(a.num), MAX(a.num) FROM fa a GROUP BY a.val",
	"SELECT a.sp, COUNT(*), MAX(a.id), SUM(*) FROM fa a GROUP BY a.sp",
	// Keys and arguments from either side of a join.
	"SELECT b.cat, COUNT(*), SUM(a.val), AVG(b.w) FROM fa a JOIN fb b ON a.id = b.fa_id GROUP BY b.cat",
	"SELECT a.flag, c.tag, COUNT(c.v), MIN(c.v), MAX(c.name) FROM fc c JOIN fa a ON c.fa_id = a.id GROUP BY a.flag, c.tag",
	// Two to five keys: few enough codes to address a table, too many (hashed),
	// hashed keys among them, and so many that the running code is renumbered
	// on the way (two hashed keys and a dictionary overflow 64 bits).
	"SELECT a.cat, a.flag, COUNT(*), AVG(a.num) FROM fa a GROUP BY a.cat, a.flag",
	"SELECT a.cat, a.num, a.flag, SUM(a.val) FROM fa a GROUP BY a.cat, a.num, a.flag",
	"SELECT a.name, a.num, a.cat, a.id, COUNT(*) FROM fa a GROUP BY a.name, a.num, a.cat, a.id",
	"SELECT a.cat, a.num, a.flag, a.val, COUNT(*), MAX(a.id) FROM fa a GROUP BY a.cat, a.num, a.flag, a.val",
	"SELECT a.val, a.sp, a.name, a.cat, c.v, COUNT(*), SUM(c.n) FROM fa a JOIN fc c ON a.id = c.fa_id GROUP BY a.val, a.sp, a.name, a.cat, c.v",
	// HAVING and items with arithmetic over aggregates; a select item that is
	// neither key nor aggregate reads the tuple that opened the group.
	"SELECT a.cat, SUM(a.num), COUNT(*) FROM fa a GROUP BY a.cat HAVING SUM(a.num) / COUNT(*) > 3 AND MAX(a.val) - MIN(a.val) >= 0",
	"SELECT a.id, a.name, COUNT(*) * 2 - COUNT(b.w) FROM fa a JOIN fb b ON a.id = b.fa_id GROUP BY b.cat, a.flag",
	// What typed vectors do not serve runs row at a time: expression arguments
	// and keys (one raising at a data-dependent row). Then fa.mx, NULLs forced in,
	// as key and as argument.
	"SELECT a.cat, SUM(a.num * 2), COUNT(a.val + 1) FROM fa a GROUP BY a.cat",
	"SELECT a.num + 1, COUNT(*), MIN(a.val) FROM fa a GROUP BY a.num + 1",
	"SELECT a.flag, SUM(a.cat + 1) FROM fa a GROUP BY a.flag",
	"SELECT a.mx, COUNT(*), SUM(a.mx) FROM fa a GROUP BY a.mx",
	"SELECT a.cat, MIN(a.mx) FROM fa a GROUP BY a.cat",
	// Global aggregates: over rows, and over an empty join (one row of NULLs
	// and zeros, the non-aggregate item NULL).
	"SELECT COUNT(*), COUNT(a.val), SUM(a.val), AVG(a.num), MIN(a.val), MAX(a.val), MIN(a.cat) FROM fa a",
	"SELECT COUNT(*), SUM(b.w), MIN(a.cat), a.id, 7 FROM fa a JOIN fb b ON a.id = b.fa_id WHERE b.w > 100",
	// Finishing: ORDER BY an aggregate, LIMIT.
	"SELECT a.cat, COUNT(*) AS n, AVG(a.val) FROM fa a GROUP BY a.cat ORDER BY n DESC, a.cat LIMIT 3",
	"SELECT a.num, a.flag, MAX(a.val) FROM fa a GROUP BY a.num, a.flag ORDER BY a.num, a.flag LIMIT 10",
}

// fuzzAggSeed - k pins a run to fuzzAggShapes[k % len] on a database of size
// k / len % 3 (see fuzzDB), each statement under one of fuzzLimitModes — the
// output budget of mode 1 trips while groups are emitted — and half of them
// narrowed at random.
const fuzzAggSeed = -1 << 48

// fuzzSidewaysSeed - k pins a run to fuzzSidewaysShapes[k % len] on a database
// of size k / len % 3 (see fuzzDB), each statement under one of fuzzLimitModes.
const fuzzSidewaysSeed = -1 << 40

// fuzzIndexShapes are the statements a seed at or below fuzzIndexSeed forces
// (see FuzzRowVsColumnar): what the scan's index range distinguishes. It serves
// a relation of several morsels whose int range holds under an eighth of its
// rows in a dense index, so the shapes filter fa.dn (unique values out of row
// order, NULLs, negatives), fa.num (few values, NULLs, negatives) and the keys
// of fb and fc by a single key, by ranges of many keys (runs re-sorted into row
// order), by bounds at ±2^53 and past them (those only the float comparison
// takes), by empty ranges, by the forms that record no range (<>, NOT BETWEEN, a
// non-integral bound), and on both sides of a join, where a partner's keys
// compete with the relation's own range.
var fuzzIndexShapes = []string{
	"SELECT a.id, a.dn FROM fa a WHERE a.dn = 7",
	"SELECT a.id, a.dn, a.val FROM fa a WHERE a.dn BETWEEN -40 AND 40",
	"SELECT * FROM fa a WHERE a.num = 3",
	"SELECT a.id, a.num FROM fa a WHERE -5 <= a.num AND a.num < -3",
	"SELECT a.id FROM fa a WHERE NOT a.dn < 2400",
	"SELECT a.id FROM fa a WHERE a.dn <= -9007199254740991 OR a.dn > 9007199254740991",
	"SELECT a.id FROM fa a WHERE a.dn < 9007199254740992 AND a.dn >= 9007199254740990",
	"SELECT a.id FROM fa a WHERE a.dn >= -9007199254740993 AND a.num < -9007199254740992",
	"SELECT a.id FROM fa a WHERE a.dn > 1152921504606846976 AND a.id < 1152921504606846977",
	"SELECT a.id FROM fa a WHERE a.dn >= -9007199254740991 AND a.num <= -5",
	"SELECT a.id FROM fa a WHERE a.dn > 100000",
	"SELECT a.id FROM fa a WHERE a.dn BETWEEN 50 AND 49",
	"SELECT a.id, a.dn FROM fa a WHERE a.dn <> 5 AND a.num = 2",
	"SELECT a.id, a.dn FROM fa a WHERE a.dn NOT BETWEEN -10 AND 10",
	"SELECT a.id, a.dn FROM fa a WHERE a.dn < -2200.5",
	"SELECT a.id, b.w FROM fa a JOIN fb b ON a.id = b.fa_id WHERE a.dn BETWEEN -30 AND 30 AND b.fa_id < 2000",
	"SELECT a.id, b.w FROM fb b JOIN fa a ON b.fa_id = a.id WHERE b.fa_id BETWEEN 100 AND 110 AND a.dn > -300",
	"SELECT a.id, c.n FROM fc c JOIN fa a ON c.fa_id = a.id WHERE c.fa_id BETWEEN 100 AND 160 AND a.dn > -100 AND a.dn <= 100",
	"SELECT a.id, b.w FROM fb b JOIN fa a ON b.fa_id = a.id WHERE a.num = 4 AND b.w = 2",
	"SELECT a.id, b.w, c.n FROM fa a JOIN fb b ON b.fa_id = a.id JOIN fc c ON c.fa_id = a.id WHERE a.dn BETWEEN -20 AND 20 AND c.n = 3",
	"SELECT a.dn, COUNT(*) FROM fa a JOIN fc c ON c.fa_id = a.id WHERE a.dn < -2000 GROUP BY a.dn",
}

// fuzzIndexSeed - k pins a run to fuzzIndexShapes[k % len] on a database of
// size k / len % 3 (see fuzzDB), each statement under one of fuzzLimitModes.
const fuzzIndexSeed = -1 << 60

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
// fuzzLimits[k / len % 4], on a big database when k / len / 4 is odd.
const fuzzLimitSeed = -1 << 32

// fuzzLimitModes is the guard situation of each of a limit seed's statements:
// none, pre-canceled, output budget below the pre-LIMIT count, injected fault,
// output budget above it, tiny intermediate budget (cases of the switch in
// FuzzRowVsColumnar).
var fuzzLimitModes = [6]int{4, 0, 1, 3, 8, 2}

// fuzzRun executes stmt under opts, on the reference executor or — as a table,
// a frame, a count or a lineage, whichever opts asks for — on the engine.
// faultPoint, when non-empty, arms a fresh deterministic error injection
// (identical across the compared runs — the schedules carry per-run hit
// counters, so each run gets its own).
func fuzzRun(ctx context.Context, db *table.Database, stmt *sqlparse.Select, opts Options, reference bool, faultPoint string, faultAfter int) (*Result, error) {
	if faultPoint != "" {
		faults.Enable(faults.NewSchedule(1, faults.Injection{
			Point: faultPoint,
			Kind:  faults.KindError,
			After: faultAfter,
		}))
		defer faults.Disable()
	}
	switch {
	case reference && opts.countOnly:
		n, err := rowCount(ctx, db, stmt, opts)
		return &Result{Count: n}, err
	case reference:
		return rowExecute(ctx, db, stmt, opts)
	case opts.countOnly:
		n, err := CountContext(ctx, db, stmt, opts)
		return &Result{Count: n}, err
	case opts.lineageOnly:
		res, err := LineageContext(ctx, db, stmt, opts)
		if res != nil && (res.Table != nil || res.Frame != nil) {
			return nil, fmt.Errorf("LineageContext answered %+v, want a lineage and a count alone", res)
		}
		return res, err
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
// result fingerprint — or, for an answer without a table, the same count and
// lineage.
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
		if la, lb := appendLineage(nil, resA.Lineage), appendLineage(nil, resB.Lineage); string(la) != string(lb) {
			t.Fatalf("%s: lineage diverges for %q\nreference:\n%.600s\n%s:\n%.600s", label, sql, la, label, lb)
		}
	} else if resA != nil {
		if fa, fb := resultFingerprint(resA), resultFingerprint(resB); fa != fb {
			t.Fatalf("%s: result diverges for %q\nreference:\n%.600s\n%s:\n%.600s", label, sql, fa, label, fb)
		}
		// Equal keys are not equal kinds (an integral float keys as its int).
		if err := declaredKinds(resA.Table); err != nil {
			t.Fatalf("reference: %q: %v", sql, err)
		}
		if err := declaredKinds(resB.Table); err != nil {
			t.Fatalf("%s: %q: %v", label, sql, err)
		}
	}
}

// declaredKinds reports the first cell of an answer that is neither NULL nor of
// the kind its column's schema declares.
func declaredKinds(t *table.RowSet) error {
	for i, r := range t.Rows {
		for j, v := range r {
			if v.Kind != table.KindNull && v.Kind != t.Schema[j].Kind {
				return fmt.Errorf("row %d: column %s is declared %s and holds the %s %v", i, t.Schema[j].Name, t.Schema[j].Kind, v.Kind, v)
			}
		}
	}
	return nil
}

// intermediateBudget reports whether err is the budget on join intermediates
// (MaxIntermediateRows), not the one on output rows.
func intermediateBudget(err error) bool {
	return errors.Is(err, ErrRowBudget) && !strings.Contains(err.Error(), "output exceeds")
}

// fuzzReference is the row engine's outcome under opts, as a columnar run that
// ended in gotErr is held to it: the outcome itself — except that where the
// reference gave up on a join intermediate over MaxIntermediateRows and the
// columnar run, whose scans leave out rows that join nothing, fitted it, it is
// the reference's outcome with that budget lifted to the default. ok is false
// when even that one refuses the intermediate and nothing is left to compare.
type fuzzReference struct {
	run         func(opts Options) (*Result, error)
	opts        Options
	res, lifted *Result
	err, errL   error
	ran, ranL   bool
}

func (r *fuzzReference) outcome(gotErr error) (res *Result, err error, ok bool) {
	if !r.ran {
		r.res, r.err = r.run(r.opts)
		r.ran = true
	}
	if gotErr != nil || !intermediateBudget(r.err) {
		return r.res, r.err, true
	}
	if !r.ranL {
		opts := r.opts
		opts.MaxIntermediateRows = 0
		r.lifted, r.errL = r.run(opts)
		r.ranL = true
	}
	return r.lifted, r.errL, !intermediateBudget(r.errL)
}

// FuzzRowVsColumnar is the differential harness: seed → random database +
// statements → row engine vs the engine's answer as a table
// (ExecuteWithContext), as a frame (ExecuteFrameContext), as a lineage and
// its count (LineageContext) and as a count (CountContext), under normal
// execution, pre-canceled contexts, output and intermediate row budgets, and
// injected operator faults. A seed >= 0 draws
// its statements from fuzzSQL; seed -1-k pins all of them to
// fuzzJoinShapes[k % len], on a big database when k / len is odd,
// seed fuzzLimitSeed-k to a fuzzLimitShapes statement and LIMIT under each of
// fuzzLimitModes, and seed fuzzSidewaysSeed-k to a fuzzSidewaysShapes statement
// under each of them at each database size, and seed fuzzAggSeed-k likewise to
// a fuzzAggShapes statement, seed fuzzProbeSeed-k to a fuzzProbeShapes one and
// seed fuzzIndexSeed-k to a fuzzIndexShapes one, so the corpus reaches every
// shape at every size by construction.
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
	for k := 0; k < 3*len(fuzzSidewaysShapes); k++ {
		f.Add(int64(fuzzSidewaysSeed - k))
	}
	for k := 0; k < 3*len(fuzzAggShapes); k++ {
		f.Add(int64(fuzzAggSeed - k))
	}
	for k := 0; k < 3*len(fuzzProbeShapes); k++ {
		f.Add(int64(fuzzProbeSeed - k))
	}
	for k := 0; k < 3*len(fuzzIndexShapes); k++ {
		f.Add(int64(fuzzIndexSeed - k))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		shape, pinSQL, size, stmts := -1, "", 0, 6
		switch {
		case seed <= fuzzIndexSeed:
			k := uint64(fuzzIndexSeed - seed)
			nShapes := uint64(len(fuzzIndexShapes))
			pinSQL, size = fuzzIndexShapes[k%nShapes], int(k/nShapes%3)
		case seed <= fuzzProbeSeed:
			k := uint64(fuzzProbeSeed - seed)
			nShapes := uint64(len(fuzzProbeShapes))
			pinSQL, size, stmts = fuzzProbeShapes[k%nShapes], int(k/nShapes%3), 8
		case seed <= fuzzAggSeed:
			k := uint64(fuzzAggSeed - seed)
			nShapes := uint64(len(fuzzAggShapes))
			pinSQL, size = fuzzAggShapes[k%nShapes], int(k/nShapes%3)
		case seed <= fuzzSidewaysSeed:
			k := uint64(fuzzSidewaysSeed - seed)
			nShapes := uint64(len(fuzzSidewaysShapes))
			pinSQL, size = fuzzSidewaysShapes[k%nShapes], int(k/nShapes%3)
		case seed <= fuzzLimitSeed:
			k := uint64(fuzzLimitSeed - seed)
			nShapes, nLimits := uint64(len(fuzzLimitShapes)), uint64(len(fuzzLimits))
			pinSQL = fmt.Sprintf("%s LIMIT %d", fuzzLimitShapes[k%nShapes], fuzzLimits[k/nShapes%nLimits])
			size = int(k / nShapes / nLimits % 2)
		case seed < 0:
			k := uint64(-(seed + 1))
			shape = int(k % uint64(len(fuzzJoinShapes)))
			size = int(k / uint64(len(fuzzJoinShapes)) % 2)
		}
		db := fuzzDB(rng, size, strings.Contains(pinSQL, ".mx"))
		for si := 0; si < stmts; si++ {
			sql, mode := pinSQL, rng.Intn(8)
			switch {
			case seed <= fuzzSidewaysSeed:
				// Half the statements as pinned, half narrowed at random; the
				// later ones paged, and one with nothing tracked or bounded.
				mode = 9 // a probe seed's last two: the budget at the row count
				if si < len(fuzzLimitModes) {
					mode = fuzzLimitModes[si]
				}
				if rng.Intn(2) == 0 {
					sql = fuzzNarrow(sql, fuzzPred(rng, "a.", 1))
				}
				if si >= 4 && seed > fuzzAggSeed {
					sql += fmt.Sprintf(" LIMIT %d", 1+rng.Intn(20))
				}
			case pinSQL != "":
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
			case 9: // intermediate budget exactly the rows the join makes, and one short
				if n, err := rowCount(ctx, db, stmt, Options{}); err == nil {
					base.MaxIntermediateRows = max(1, n-si%2)
				}
			}
			reference := func(opts Options) *fuzzReference {
				return &fuzzReference{opts: opts, run: func(opts Options) (*Result, error) {
					return fuzzRun(ctx, db, stmt, opts, true, faultPoint, faultAfter)
				}}
			}
			check := func(label string, ref *fuzzReference, opts Options) {
				t.Helper()
				got, gotErr := fuzzRun(ctx, db, stmt, opts, false, faultPoint, faultAfter)
				want, wantErr, ok := ref.outcome(gotErr)
				if !ok {
					t.Logf("%s: %q: no reference under any intermediate budget", label, sql)
					return
				}
				switch {
				case want == nil:
				case opts.frames:
					// A frame is the same answer without lineage, whether its
					// rows were ever built or not.
					want = &Result{Table: want.Table}
				case opts.lineageOnly:
					// A lineage is the same answer without its rows.
					want = &Result{Lineage: want.Lineage, Count: want.Table.NumRows()}
				}
				fuzzCompare(t, sql, label, want, wantErr, got, gotErr)
			}
			ref, frame, lineage, count := reference(base), base, base, base
			frame.frames, lineage.lineageOnly, count.countOnly = true, true, true
			check("columnar", ref, base)
			check("columnar-frame", ref, frame)
			check("columnar-lineage", ref, lineage)
			// CountContext must agree with the row engine whether or not the
			// count-only specialization applies, guards included.
			check("columnar-count", reference(count), count)
		}
	})
}
