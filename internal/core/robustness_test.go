package core

import (
	"strings"
	"testing"

	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// TestTrainSingleTableDatabase: the pipeline must work without joins.
func TestTrainSingleTableDatabase(t *testing.T) {
	tb := table.New("nums", table.Schema{
		{Name: "v", Kind: table.KindInt},
		{Name: "cat", Kind: table.KindString},
	})
	cats := []string{"a", "b", "c"}
	for i := 0; i < 500; i++ {
		tb.AppendRow(table.Row{table.NewInt(int64(i)), table.NewString(cats[i%3])})
	}
	db := table.NewDatabase()
	db.Add(tb)
	w := workload.MustNew(
		"SELECT * FROM nums WHERE v > 100 AND v < 200",
		"SELECT * FROM nums WHERE cat = 'a' AND v < 50",
		"SELECT * FROM nums WHERE v BETWEEN 300 AND 400",
		"SELECT v FROM nums WHERE cat = 'b'",
	)
	cfg := testConfig()
	cfg.K = 80
	cfg.Episodes = 8
	sys, err := Train(db, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	score, err := sys.ScoreOn(w)
	if err != nil {
		t.Fatal(err)
	}
	if score <= 0 {
		t.Errorf("single-table score = %v, want > 0", score)
	}
}

// TestTrainBudgetLargerThanData: K exceeding the database size must still
// produce a working (complete-ish) set.
func TestTrainBudgetLargerThanData(t *testing.T) {
	tb := table.New("tiny", table.Schema{{Name: "v", Kind: table.KindInt}})
	for i := 0; i < 40; i++ {
		tb.AppendRow(table.Row{table.NewInt(int64(i))})
	}
	db := table.NewDatabase()
	db.Add(tb)
	w := workload.MustNew(
		"SELECT * FROM tiny WHERE v > 10",
		"SELECT * FROM tiny WHERE v < 30",
	)
	cfg := testConfig()
	cfg.K = 10000
	cfg.Episodes = 6
	sys, err := Train(db, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	score, err := sys.ScoreOn(w)
	if err != nil {
		t.Fatal(err)
	}
	if score < 0.99 {
		t.Errorf("huge budget should cover everything, score = %v", score)
	}
}

// TestTrainWorkloadWithFailingQueries: queries over missing tables make
// preprocessing fail with a clear error rather than panicking.
func TestTrainWorkloadWithFailingQueries(t *testing.T) {
	db := testIMDB()
	w := workload.MustNew(
		"SELECT * FROM ghost_table WHERE x > 1",
		"SELECT * FROM title WHERE genre = 'drama'",
	)
	// The failing query may or may not be selected as a representative; if
	// it is, Train must surface an error mentioning the query.
	_, err := Train(db, w, testConfig())
	if err != nil && !strings.Contains(err.Error(), "ghost_table") {
		t.Errorf("error should name the failing query, got: %v", err)
	}
}

// TestTrainAllEmptyResults: a workload whose queries return nothing cannot
// build an action space; Train must fail gracefully.
func TestTrainAllEmptyResults(t *testing.T) {
	db := testIMDB()
	w := workload.MustNew(
		"SELECT * FROM title WHERE production_year > 99999",
		"SELECT * FROM title WHERE rating > 1000",
	)
	if _, err := Train(db, w, testConfig()); err == nil {
		t.Error("all-empty workload should fail with a clear error")
	}
}

// TestTrainWithAggregateWorkload: aggregates are rewritten to SPJ before
// preprocessing; training must succeed.
func TestTrainWithAggregateWorkload(t *testing.T) {
	db := testIMDB()
	w := workload.MustNew(
		"SELECT genre, COUNT(*) FROM title WHERE production_year > 1990 GROUP BY genre",
		"SELECT AVG(rating) FROM title WHERE genre = 'drama'",
		"SELECT genre, MAX(votes) FROM title GROUP BY genre",
	)
	cfg := testConfig()
	cfg.Episodes = 8
	sys, err := Train(db, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate queries route through the estimator via their SPJ rewrite.
	res, err := sys.Query("SELECT genre, COUNT(*) FROM title WHERE production_year > 1995 GROUP BY genre")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() == 0 {
		t.Error("aggregate over approximation set returned nothing")
	}
}

// TestQueryWithLimitRespectedOnApproxSet: LIMIT applies to approximate
// answers too.
func TestQueryWithLimitRespectedOnApproxSet(t *testing.T) {
	db := testIMDB()
	sys, err := Train(db, testWorkload(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query("SELECT * FROM title WHERE production_year > 1950 LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() > 3 {
		t.Errorf("LIMIT ignored: %d rows", res.Table.NumRows())
	}
}

// TestFineTuneShapeStability: repeated fine-tuning must keep network shapes
// compatible, so the trained weights still load. What a slot of those weights
// means after re-preprocessing is another matter (DESIGN.md §4b).
func TestFineTuneShapeStability(t *testing.T) {
	db := testIMDB()
	w := testWorkload()
	cfg := testConfig()
	cfg.Episodes = 6
	sys, err := Train(db, w[:8], cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		extra := workload.Workload{w[8+round]}
		extra.Normalize()
		if err := sys.FineTune(extra, 4); err != nil {
			t.Fatalf("fine-tune round %d: %v", round, err)
		}
	}
	if sys.Stats().FineTunes != 3 {
		t.Errorf("FineTunes = %d, want 3", sys.Stats().FineTunes)
	}
}

// TestEstimatorDegeneracies: the estimator handles empty inputs gracefully.
func TestEstimatorDegeneracies(t *testing.T) {
	est := NewEstimator(embedderForTest(), nil, nil, 5)
	pred, conf := est.Estimate(testWorkload()[0].Stmt)
	if pred != 0 || conf != 0 {
		t.Errorf("empty estimator should predict (0,0), got (%v,%v)", pred, conf)
	}
}

// TestDriftDetectorExactThreshold verifies the trigger count boundary.
func TestDriftDetectorExactThreshold(t *testing.T) {
	d := &DriftDetector{Confidence: 0.5, Count: 2}
	stmt := testWorkload()[0].Stmt
	if drifted, triggered := d.ObserveDetail(stmt, 0.9); drifted || triggered { // similarity 0.9 → deviation 0.1 < 0.5
		t.Error("non-deviating query should not count")
	}
	if drifted, triggered := d.ObserveDetail(stmt, 0.3); !drifted || triggered { // deviation 0.7: first drifted
		t.Error("one drifted query should not trigger with Count=2")
	}
	if _, triggered := d.ObserveDetail(stmt, 0.2); !triggered { // second drifted: trigger
		t.Error("second drifted query should trigger")
	}
	if d.DriftedCount() != 2 {
		t.Errorf("drifted = %d, want 2", d.DriftedCount())
	}
	d.ResetDrift()
	if d.DriftedCount() != 0 {
		t.Error("reset should clear")
	}
}
