package spn

import (
	"math"
	"testing"

	"asqprl/internal/datagen"
	"asqprl/internal/engine"
	"asqprl/internal/metrics"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

func flightsDB() *table.Database { return datagen.Flights(0.05, 3) }

func learned(t *testing.T) (*SPN, *table.Database) {
	t.Helper()
	db := flightsDB()
	s, err := Learn(db.Table("flights"), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s, db
}

// truth executes the query exactly and maps group -> value (first agg item
// after the optional group column).
func truth(t *testing.T, db *table.Database, sql string) map[string]float64 {
	t.Helper()
	stmt := sqlparse.MustParse(sql)
	res, err := engine.Execute(db, stmt)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	hasGroup := len(stmt.GroupBy) > 0
	for _, r := range res.Table.Rows {
		if hasGroup {
			out[r[0].String()] = r[1].AsFloat()
		} else {
			out[""] = r[0].AsFloat()
		}
	}
	return out
}

func TestCountEstimates(t *testing.T) {
	s, db := learned(t)
	queries := []string{
		"SELECT COUNT(*) FROM flights WHERE dep_delay > 30",
		"SELECT COUNT(*) FROM flights WHERE carrier = 'AA'",
		"SELECT COUNT(*) FROM flights WHERE month BETWEEN 6 AND 8",
		"SELECT COUNT(*) FROM flights WHERE distance > 1000 AND dep_delay > 10",
	}
	for _, q := range queries {
		est, err := s.Estimate(sqlparse.MustParse(q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want := truth(t, db, q)[""]
		got := est[""]
		relErr := metrics.RelativeError(got, want)
		t.Logf("%s: est %.0f true %.0f (err %.3f)", q, got, want, relErr)
		if relErr > 0.35 {
			t.Errorf("%s: relative error %.3f too high (est %.0f, true %.0f)", q, relErr, got, want)
		}
	}
}

func TestSumAvgEstimates(t *testing.T) {
	s, db := learned(t)
	queries := []string{
		"SELECT SUM(distance) FROM flights WHERE carrier = 'AA'",
		"SELECT AVG(distance) FROM flights WHERE month = 6",
	}
	for _, q := range queries {
		est, err := s.Estimate(sqlparse.MustParse(q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want := truth(t, db, q)[""]
		relErr := metrics.RelativeError(est[""], want)
		t.Logf("%s: est %.0f true %.0f (err %.3f)", q, est[""], want, relErr)
		if relErr > 0.4 {
			t.Errorf("%s: relative error %.3f too high", q, relErr)
		}
	}
}

func TestGroupByEstimates(t *testing.T) {
	s, db := learned(t)
	q := "SELECT carrier, COUNT(*) FROM flights WHERE dep_delay > 20 GROUP BY carrier"
	est, err := s.Estimate(sqlparse.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	want := truth(t, db, q)
	if len(est) == 0 {
		t.Fatal("no groups estimated")
	}
	gre := metrics.GroupRelativeError(map[string]float64(est), want)
	t.Logf("grouped count error: %.3f over %d true groups (%d estimated)", gre, len(want), len(est))
	if gre > 0.45 {
		t.Errorf("grouped relative error %.3f too high", gre)
	}
}

func TestAvgGroupEstimates(t *testing.T) {
	s, db := learned(t)
	q := "SELECT month, AVG(dep_delay) FROM flights GROUP BY month"
	est, err := s.Estimate(sqlparse.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	want := truth(t, db, q)
	gre := metrics.GroupRelativeError(map[string]float64(est), want)
	t.Logf("grouped avg error: %.3f", gre)
	if gre > 0.5 {
		t.Errorf("grouped avg error %.3f too high", gre)
	}
}

func TestUnsupportedQueries(t *testing.T) {
	s, _ := learned(t)
	bad := []string{
		"SELECT COUNT(*) FROM flights f JOIN flights g ON f.id = g.id",           // join
		"SELECT COUNT(*) FROM other_table",                                       // wrong table
		"SELECT carrier FROM flights",                                            // no aggregate
		"SELECT COUNT(*) FROM flights WHERE dep_delay > 10 OR month = 1",         // OR
		"SELECT MIN(distance) FROM flights",                                      // unsupported agg
		"SELECT carrier, origin, COUNT(*) FROM flights GROUP BY carrier, origin", // 2 group cols
	}
	for _, q := range bad {
		if _, err := s.Estimate(sqlparse.MustParse(q)); err == nil {
			t.Errorf("%s: expected error", q)
		}
	}
}

func TestLearnEmptyTableErrors(t *testing.T) {
	empty := table.New("flights", table.Schema{{Name: "a", Kind: table.KindInt}})
	if _, err := Learn(empty, Options{}); err == nil {
		t.Error("empty table should error")
	}
}

func TestEstimateNoPredicates(t *testing.T) {
	s, db := learned(t)
	q := "SELECT COUNT(*) FROM flights"
	est, err := s.Estimate(sqlparse.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(db.Table("flights").NumRows())
	if math.Abs(est[""]-want)/want > 0.01 {
		t.Errorf("unfiltered count = %.0f, want %.0f", est[""], want)
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if got := pearson(a, b); math.Abs(got-1) > 1e-9 {
		t.Errorf("perfect correlation = %v", got)
	}
	c := []float64{5, 4, 3, 2, 1}
	if got := pearson(a, c); math.Abs(got+1) > 1e-9 {
		t.Errorf("perfect anti-correlation = %v", got)
	}
	if got := pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("constant column correlation = %v, want 0", got)
	}
}

func TestSPNDeterministic(t *testing.T) {
	db := flightsDB()
	s1, _ := Learn(db.Table("flights"), Options{Seed: 9})
	s2, _ := Learn(db.Table("flights"), Options{Seed: 9})
	q := sqlparse.MustParse("SELECT COUNT(*) FROM flights WHERE dep_delay > 15")
	e1, _ := s1.Estimate(q)
	e2, _ := s2.Estimate(q)
	if e1[""] != e2[""] {
		t.Errorf("same seed gave different estimates: %v vs %v", e1[""], e2[""])
	}
}

func TestNAccessor(t *testing.T) {
	s, db := learned(t)
	if s.n != db.Table("flights").NumRows() {
		t.Errorf("n = %d", s.n)
	}
}
