package core

import (
	"testing"

	"asqprl/internal/datagen"
	"asqprl/internal/metrics"
	"asqprl/internal/sqlparse"
	"asqprl/internal/workload"
)

func aggregateSystem(t *testing.T) *System {
	t.Helper()
	db := datagen.Flights(0.05, 3)
	w := workload.FlightsAggregates(16, 5)
	cfg := testConfig()
	cfg.K = db.Table("flights").NumRows() / 20 // 5% memory
	cfg.Episodes = 12
	sys, err := Train(db, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestQueryAggregateCountScaling(t *testing.T) {
	sys := aggregateSystem(t)
	q := "SELECT COUNT(*) FROM flights WHERE dep_delay > 20"
	res, err := sys.QueryAggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := sys.ExactAggregate(sqlparse.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	if res.FromApproximation && res.ScaleFactor <= 1 {
		t.Errorf("COUNT from a 5%% sample should scale up, factor = %v", res.ScaleFactor)
	}
	relErr := metrics.RelativeError(res.Values[""], truth[""])
	t.Logf("count: est %.0f true %.0f (err %.3f, scale %.1f, approx=%v)",
		res.Values[""], truth[""], relErr, res.ScaleFactor, res.FromApproximation)
	if relErr > 0.8 {
		t.Errorf("scaled count error %.3f too high", relErr)
	}
}

func TestQueryAggregateAvgNotScaled(t *testing.T) {
	sys := aggregateSystem(t)
	res, err := sys.QueryAggregate("SELECT AVG(dep_delay) FROM flights WHERE carrier = 'AA'")
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleFactor != 1 {
		t.Errorf("AVG must not be scaled, factor = %v", res.ScaleFactor)
	}
}

func TestQueryAggregateGrouped(t *testing.T) {
	sys := aggregateSystem(t)
	q := "SELECT carrier, COUNT(*) FROM flights WHERE dep_delay > 10 GROUP BY carrier"
	res, err := sys.QueryAggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) == 0 {
		t.Fatal("no groups returned")
	}
	truth, err := sys.ExactAggregate(sqlparse.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	gre := metrics.GroupRelativeError(res.Values, truth)
	t.Logf("grouped count error: %.3f (%d/%d groups)", gre, len(res.Values), len(truth))
	if gre > 0.9 {
		t.Errorf("grouped error %.3f too high", gre)
	}
}

func TestQueryAggregateErrors(t *testing.T) {
	sys := aggregateSystem(t)
	if _, err := sys.QueryAggregate("SELECT carrier FROM flights"); err == nil {
		t.Error("non-aggregate should error")
	}
	if _, err := sys.QueryAggregate("SELECT carrier, origin, COUNT(*) FROM flights GROUP BY carrier, origin"); err == nil {
		t.Error("two group columns should error")
	}
	if _, err := sys.QueryAggregate("NOT SQL"); err == nil {
		t.Error("bad SQL should error")
	}
}
