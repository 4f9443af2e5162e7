package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"asqprl/internal/table"
	"asqprl/internal/workload"
)

func numsDB(n int) *table.Database {
	t := table.New("nums", table.Schema{
		{Name: "v", Kind: table.KindInt},
	})
	for i := 0; i < n; i++ {
		t.AppendRow(table.Row{table.NewInt(int64(i))})
	}
	db := table.NewDatabase()
	db.Add(t)
	return db
}

func subsetDB(full *table.Database, rows []int) *table.Database {
	s := table.NewSubset()
	for _, r := range rows {
		s.Add(table.RowID{Table: "nums", Row: r})
	}
	return s.Materialize(full)
}

func TestScoreFullSubsetIsOne(t *testing.T) {
	db := numsDB(100)
	w := workload.MustNew(
		"SELECT * FROM nums WHERE v < 10",
		"SELECT * FROM nums WHERE v >= 90",
	)
	all := make([]int, 100)
	for i := range all {
		all[i] = i
	}
	s, err := Score(db, subsetDB(db, all), w, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("score of full subset = %v, want 1", s)
	}
}

func TestScoreEmptySubsetIsZero(t *testing.T) {
	db := numsDB(100)
	w := workload.MustNew("SELECT * FROM nums WHERE v < 10")
	s, err := Score(db, subsetDB(db, nil), w, 50)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Errorf("score of empty subset = %v, want 0", s)
	}
}

func TestScoreFrameSizeCapping(t *testing.T) {
	db := numsDB(1000)
	// Query returns 500 rows; with F=50, covering any 50 gives full score.
	w := workload.MustNew("SELECT * FROM nums WHERE v < 500")
	rows := make([]int, 50)
	for i := range rows {
		rows[i] = i
	}
	s, err := Score(db, subsetDB(db, rows), w, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("50 covered rows with F=50 should score 1, got %v", s)
	}
	// With F=100, the same subset scores 0.5.
	s, err = Score(db, subsetDB(db, rows), w, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.5) > 1e-9 {
		t.Errorf("50 covered rows with F=100 should score 0.5, got %v", s)
	}
}

func TestScoreSmallResultDominatedByEachTuple(t *testing.T) {
	db := numsDB(100)
	// Query returns 4 rows; F=50 → denominator is 4.
	w := workload.MustNew("SELECT * FROM nums WHERE v < 4")
	s, err := Score(db, subsetDB(db, []int{0, 1}), w, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.5) > 1e-9 {
		t.Errorf("2 of 4 tuples should score 0.5, got %v", s)
	}
}

func TestScoreEmptyTrueAnswerIsPerfect(t *testing.T) {
	db := numsDB(10)
	w := workload.MustNew("SELECT * FROM nums WHERE v > 1000")
	s, err := Score(db, subsetDB(db, nil), w, 50)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Errorf("empty true answer should score 1, got %v", s)
	}
}

func TestScoreWeightsRespected(t *testing.T) {
	db := numsDB(100)
	w := workload.MustNew(
		"SELECT * FROM nums WHERE v < 10",  // covered below
		"SELECT * FROM nums WHERE v >= 90", // not covered
	)
	w[0].Weight = 0.9
	w[1].Weight = 0.1
	rows := make([]int, 10)
	for i := range rows {
		rows[i] = i
	}
	s, err := Score(db, subsetDB(db, rows), w, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.9) > 1e-9 {
		t.Errorf("weighted score = %v, want 0.9", s)
	}
}

func TestScoreInvalidFrameSize(t *testing.T) {
	db := numsDB(10)
	w := workload.MustNew("SELECT * FROM nums")
	if _, err := Score(db, db, w, 0); err == nil {
		t.Error("zero frame size should error")
	}
}

func TestScoreBadQueryContributesZero(t *testing.T) {
	db := numsDB(10)
	w := workload.MustNew(
		"SELECT * FROM ghost",
		"SELECT * FROM nums WHERE v < 5",
	)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	s, err := Score(db, subsetDB(db, all), w, 50)
	if err == nil {
		t.Error("bad query should surface an error")
	}
	if math.Abs(s-0.5) > 1e-9 {
		t.Errorf("score = %v, want 0.5 (good query full, bad query zero)", s)
	}
}

// TestScoreCollectsAllErrors: every failed query is reported, not just the
// first — the joined error mentions each broken query by its SQL.
func TestScoreCollectsAllErrors(t *testing.T) {
	db := numsDB(10)
	w := workload.MustNew(
		"SELECT * FROM ghost",
		"SELECT * FROM nums WHERE v < 5",
		"SELECT * FROM phantom",
	)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	scores, err := PerQueryScores(db, subsetDB(db, all), w, 50)
	if err == nil {
		t.Fatal("two bad queries should surface an error")
	}
	for _, frag := range []string{"ghost", "phantom"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("joined error should mention %q, got: %v", frag, err)
		}
	}
	if len(scores) != 3 {
		t.Fatalf("scores length = %d, want 3", len(scores))
	}
	if scores[0] != 0 || scores[2] != 0 {
		t.Errorf("failed queries should score 0, got %v", scores)
	}
	if math.Abs(scores[1]-1) > 1e-9 {
		t.Errorf("good query should score 1, got %v", scores[1])
	}

	// Score still returns the partial weighted total with the same error.
	s, err := Score(db, subsetDB(db, all), w, 50)
	if err == nil {
		t.Error("Score should propagate the joined error")
	}
	if math.Abs(s-1.0/3) > 1e-9 {
		t.Errorf("partial score = %v, want 1/3", s)
	}
}

// TestScoreMonotoneProperty: adding rows to a subset never lowers the score.
func TestScoreMonotoneProperty(t *testing.T) {
	db := numsDB(60)
	w := workload.MustNew(
		"SELECT * FROM nums WHERE v < 30",
		"SELECT * FROM nums WHERE v % 2 = 0",
	)
	rng := rand.New(rand.NewSource(1))
	f := func(seedRaw uint8) bool {
		n1 := int(seedRaw) % 30
		rows := rng.Perm(60)[:n1]
		s1, _ := Score(db, subsetDB(db, rows), w, 10)
		more := append(append([]int(nil), rows...), rng.Perm(60)[:10]...)
		s2, _ := Score(db, subsetDB(db, dedupe(more)), w, 10)
		return s2 >= s1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func dedupe(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func TestRelativeError(t *testing.T) {
	cases := []struct {
		pred, truth, want float64
	}{
		{100, 100, 0},
		{110, 100, 0.1},
		{90, 100, 0.1},
		{0, 0, 0},
		{5, 0, 1},
		{-50, 100, 1.5},
	}
	for _, c := range cases {
		if got := RelativeError(c.pred, c.truth); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("RelativeError(%v, %v) = %v, want %v", c.pred, c.truth, got, c.want)
		}
	}
}

func TestGroupRelativeError(t *testing.T) {
	truth := map[string]float64{"a": 100, "b": 200}
	perfect := GroupRelativeError(map[string]float64{"a": 100, "b": 200}, truth)
	if perfect != 0 {
		t.Errorf("perfect prediction error = %v", perfect)
	}
	// Missing group contributes 1.
	missing := GroupRelativeError(map[string]float64{"a": 100}, truth)
	if math.Abs(missing-0.5) > 1e-9 {
		t.Errorf("one missing of two groups = %v, want 0.5", missing)
	}
	// Per-group errors capped at 1.
	wild := GroupRelativeError(map[string]float64{"a": 1e9, "b": 200}, truth)
	if math.Abs(wild-0.5) > 1e-9 {
		t.Errorf("capped error = %v, want 0.5", wild)
	}
	if GroupRelativeError(nil, nil) != 0 {
		t.Error("empty truth should be 0")
	}
	// Extra predicted groups are ignored.
	extra := GroupRelativeError(map[string]float64{"a": 100, "b": 200, "z": 5}, truth)
	if extra != 0 {
		t.Errorf("extra groups should not count, got %v", extra)
	}
}

func TestCoverageError(t *testing.T) {
	cases := []struct {
		served, truth, frame int
		want                 float64
	}{
		{3, 3, 25, 0},       // full coverage
		{2, 3, 25, 1.0 / 3}, // 2 of 3 true rows served
		{0, 3, 25, 1},       // nothing served
		{0, 0, 25, 0},       // empty truth, empty answer: perfect
		{2, 0, 25, 1},       // rows invented against an empty truth
		{10, 100, 25, 0.6},  // frame caps the denominator: 1 - 10/25
		{30, 100, 25, 0},    // beyond the frame counts as full coverage
		{5, 3, 25, 0},       // over-delivery clamps to score 1
		{2, 3, 0, 1.0 / 3},  // frame 0 disables the cap
		{2, 3, -1, 1.0 / 3}, // negative frame likewise
		{10, 100, 200, 0.9}, // frame larger than truth: truth wins
	}
	for _, c := range cases {
		if got := CoverageError(c.served, c.truth, c.frame); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("CoverageError(%d, %d, %d) = %v, want %v", c.served, c.truth, c.frame, got, c.want)
		}
	}
}

func TestPrecisionRecall(t *testing.T) {
	pred := []bool{true, true, false, false, true}
	act := []bool{true, false, false, true, true}
	p, r := PrecisionRecall(pred, act)
	if math.Abs(p-2.0/3) > 1e-9 {
		t.Errorf("precision = %v, want 2/3", p)
	}
	if math.Abs(r-2.0/3) > 1e-9 {
		t.Errorf("recall = %v, want 2/3", r)
	}
	p, r = PrecisionRecall([]bool{false}, []bool{false})
	if p != 0 || r != 0 {
		t.Errorf("degenerate P/R = %v/%v", p, r)
	}
}

func TestMeanQuantile(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile")
	}
	xs := []float64{9, 1, 5, 3, 7} // unsorted on purpose; must not be reordered
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {1, 9}, {0.25, 3}, {0.125, 2}} {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("Quantile sorted its argument in place")
	}
}

func TestIntraResultDiversity(t *testing.T) {
	// Identical rows → 0 diversity.
	same := &table.RowSet{Schema: table.Schema{{Name: "a", Kind: table.KindInt}, {Name: "b", Kind: table.KindInt}}}
	same.Rows = append(same.Rows, table.Row{table.NewInt(1), table.NewInt(2)})
	same.Rows = append(same.Rows, table.Row{table.NewInt(1), table.NewInt(2)})
	if d := IntraResultDiversity(same, 0); d != 0 {
		t.Errorf("identical rows diversity = %v", d)
	}
	// Fully distinct rows → 1.
	diff := &table.RowSet{Schema: table.Schema{{Name: "a", Kind: table.KindInt}, {Name: "b", Kind: table.KindInt}}}
	diff.Rows = append(diff.Rows, table.Row{table.NewInt(1), table.NewInt(2)})
	diff.Rows = append(diff.Rows, table.Row{table.NewInt(3), table.NewInt(4)})
	if d := IntraResultDiversity(diff, 0); math.Abs(d-1) > 1e-9 {
		t.Errorf("disjoint rows diversity = %v, want 1", d)
	}
	// Rows sharing one of three values → 1 − 1/3.
	half := &table.RowSet{Schema: diff.Schema}
	half.Rows = append(half.Rows, table.Row{table.NewInt(1), table.NewInt(2)})
	half.Rows = append(half.Rows, table.Row{table.NewInt(2), table.NewInt(3)})
	if d := IntraResultDiversity(half, 0); math.Abs(d-(1-1.0/3)) > 1e-9 {
		t.Errorf("half-overlap diversity = %v, want 2/3", d)
	}
	// Rows of no columns count as identical.
	empty := &table.RowSet{Rows: []table.Row{{}, {}}}
	if d := IntraResultDiversity(empty, 0); d != 0 {
		t.Errorf("two empty rows = %v, want 0", d)
	}
	// Single row → 0.
	one := &table.RowSet{Schema: table.Schema{{Name: "a", Kind: table.KindInt}}}
	one.Rows = append(one.Rows, table.Row{table.NewInt(1)})
	if d := IntraResultDiversity(one, 0); d != 0 {
		t.Errorf("single-row diversity = %v", d)
	}
	// maxRows caps the comparison.
	big := &table.RowSet{Schema: table.Schema{{Name: "a", Kind: table.KindInt}}}
	for i := 0; i < 500; i++ {
		big.Rows = append(big.Rows, table.Row{table.NewInt(int64(i))})
	}
	if d := IntraResultDiversity(big, 10); math.Abs(d-1) > 1e-9 {
		t.Errorf("capped diversity = %v", d)
	}
}
