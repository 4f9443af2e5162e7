package core

import (
	"math/rand"
	"testing"

	"asqprl/internal/datagen"
	"asqprl/internal/metrics"
	"asqprl/internal/sample"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// testConfig returns a configuration small enough for fast tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.K = 150
	cfg.F = 25
	cfg.NumRepresentatives = 8
	cfg.ActionSpaceSize = 64
	cfg.MaxTrackedPerQuery = 60
	cfg.Episodes = 24
	cfg.RL.Workers = 4
	cfg.Seed = 1
	return cfg
}

func testIMDB() *table.Database { return datagen.IMDB(0.02, 7) }

func testWorkload() workload.Workload { return workload.IMDB(18, 11) }

// randomSubset picks k rows uniformly across all tables, the RAN baseline.
func randomSubset(db *table.Database, k int, rng *rand.Rand) *table.Subset {
	s := table.NewSubset()
	total := db.TotalRows()
	if total == 0 {
		return s
	}
	type span struct {
		name  string
		start int
	}
	var spans []span
	offset := 0
	for _, t := range db.Tables() {
		spans = append(spans, span{name: t.Name, start: offset})
		offset += t.NumRows()
	}
	for _, g := range sample.Uniform(total, k, rng) {
		for i := len(spans) - 1; i >= 0; i-- {
			if g >= spans[i].start {
				s.Add(table.RowID{Table: spans[i].name, Row: g - spans[i].start})
				break
			}
		}
	}
	return s
}

func TestPreprocessInvariants(t *testing.T) {
	db := testIMDB()
	w := testWorkload()
	cfg := testConfig()
	pre, err := Preprocess(db, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pre.Reps) == 0 || len(pre.Reps) > cfg.NumRepresentatives {
		t.Fatalf("reps = %d, want 1..%d", len(pre.Reps), cfg.NumRepresentatives)
	}
	if len(pre.Candidates) == 0 || len(pre.Candidates) > cfg.ActionSpaceSize {
		t.Fatalf("candidates = %d, want 1..%d", len(pre.Candidates), cfg.ActionSpaceSize)
	}
	// Representative weights are normalized.
	var wsum float64
	for _, r := range pre.Reps {
		wsum += r.Weight
		for _, q := range []int{r.Orig, r.Rel} {
			if q < 0 {
				continue
			}
			tq := pre.Cover.Queries[q]
			if len(tq.Tuples) > cfg.MaxTrackedPerQuery {
				t.Errorf("rep tracks %d tuples > cap %d", len(tq.Tuples), cfg.MaxTrackedPerQuery)
			}
			if tq.Total < len(tq.Tuples) {
				t.Errorf("rep Total %d < tracked %d", tq.Total, len(tq.Tuples))
			}
		}
	}
	if wsum < 0.999 || wsum > 1.001 {
		t.Errorf("rep weights sum to %v, want 1", wsum)
	}
	// Every candidate's rows reference real rows.
	for _, c := range pre.Candidates {
		if len(c.Rows) == 0 {
			t.Error("empty candidate")
		}
		for _, id := range c.Rows {
			tab := db.Table(id.Table)
			if tab == nil || id.Row < 0 || id.Row >= tab.NumRows() {
				t.Errorf("candidate references invalid row %v", id)
			}
		}
	}
}

func TestPreprocessEmptyWorkloadFails(t *testing.T) {
	if _, err := Preprocess(testIMDB(), nil, testConfig()); err == nil {
		t.Error("empty workload should error")
	}
}

func TestPreprocessTrainFraction(t *testing.T) {
	db := testIMDB()
	w := testWorkload()
	cfg := testConfig()
	cfg.TrainFraction = 0.25
	pre, err := Preprocess(db, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := testConfig()
	preFull, err := Preprocess(db, w, full)
	if err != nil {
		t.Fatal(err)
	}
	if pre.ExecutedQueries >= preFull.ExecutedQueries {
		t.Errorf("fraction 0.25 executed %d queries, full executed %d",
			pre.ExecutedQueries, preFull.ExecutedQueries)
	}
}

func TestGSLEnvMechanics(t *testing.T) {
	pre, err := Preprocess(testIMDB(), testWorkload(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	env := NewEnvironment(pre, cfg, 0)
	state, mask := env.Reset()
	if len(state) != env.StateDim() {
		t.Fatalf("state dim %d != %d", len(state), env.StateDim())
	}
	if len(mask) != env.NumActions() {
		t.Fatalf("mask len %d != %d", len(mask), env.NumActions())
	}
	// Rewards telescope to the final score.
	var total float64
	rng := rand.New(rand.NewSource(5))
	done := false
	steps := 0
	for !done {
		var valid []int
		for i, ok := range mask {
			if ok {
				valid = append(valid, i)
			}
		}
		if len(valid) == 0 {
			break
		}
		var r float64
		_, mask, r, done = env.Step(valid[rng.Intn(len(valid))])
		total += r
		steps++
		if steps > 10000 {
			t.Fatal("episode did not terminate")
		}
	}
	sub := env.Subset()
	if sub.Size() == 0 {
		t.Error("episode built empty subset")
	}
	if sub.Size() > cfg.K+20 {
		// Budget may overshoot by at most one candidate's rows.
		t.Errorf("subset size %d far exceeds budget %d", sub.Size(), cfg.K)
	}
	if total <= 0 {
		t.Errorf("total reward = %v, want > 0", total)
	}
}

func TestDRPAndHybridEnvsRun(t *testing.T) {
	pre, err := Preprocess(testIMDB(), testWorkload(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []EnvironmentKind{EnvDRP, EnvHybrid} {
		cfg := testConfig()
		cfg.Environment = kind
		cfg.DRPHorizon = 40
		env := NewEnvironment(pre, cfg, 0)
		_, mask := env.Reset()
		rng := rand.New(rand.NewSource(6))
		done := false
		steps := 0
		for !done && steps < 500 {
			var valid []int
			for i, ok := range mask {
				if ok {
					valid = append(valid, i)
				}
			}
			if len(valid) == 0 {
				t.Fatalf("%v: no valid action at step %d", kind, steps)
			}
			_, mask, _, done = env.Step(valid[rng.Intn(len(valid))])
			steps++
		}
		if !done {
			t.Errorf("%v: did not terminate within 500 steps", kind)
		}
		if env.Subset().Size() == 0 {
			t.Errorf("%v: empty subset", kind)
		}
	}
}

// TestTrainBeatsRandom is the headline integration test: ASQP-RL's
// approximation set must outscore a random subset of the same size on the
// training workload, and be competitive on held-out queries.
func TestTrainBeatsRandom(t *testing.T) {
	db := testIMDB()
	w := testWorkload()
	rng := rand.New(rand.NewSource(13))
	train, test := w.Split(0.7, rng)
	cfg := testConfig()

	sys, err := Train(db, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Set().Size() == 0 {
		t.Fatal("empty approximation set")
	}
	if sys.Set().Size() > cfg.K+20 {
		t.Errorf("set size %d exceeds budget %d", sys.Set().Size(), cfg.K)
	}

	asqpTrain, err := sys.ScoreOn(train)
	if err != nil {
		t.Fatalf("scoring train: %v", err)
	}
	// Random baseline, averaged over 3 draws.
	var randomTrain float64
	for i := 0; i < 3; i++ {
		rs := randomSubset(db, sys.Set().Size(), rng)
		s, err := metrics.Score(db, rs.Materialize(db), train, cfg.F)
		if err != nil {
			t.Fatal(err)
		}
		randomTrain += s
	}
	randomTrain /= 3

	t.Logf("train score: asqp=%.3f random=%.3f (set size %d)", asqpTrain, randomTrain, sys.Set().Size())
	if asqpTrain <= randomTrain {
		t.Errorf("ASQP-RL train score %.3f should beat random %.3f", asqpTrain, randomTrain)
	}

	asqpTest, err := sys.ScoreOn(test)
	if err != nil {
		t.Fatalf("scoring test: %v", err)
	}
	t.Logf("test score: asqp=%.3f", asqpTest)
	if asqpTest < 0.05 {
		t.Errorf("test score %.3f suspiciously low — no generalization at all", asqpTest)
	}
}

func TestSystemQueryRouting(t *testing.T) {
	db := testIMDB()
	w := testWorkload()
	cfg := testConfig()
	sys, err := Train(db, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A training query should route to the approximation set with a decent
	// predicted score.
	res, err := sys.Query(w[0].SQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table == nil {
		t.Fatal("nil result table")
	}
	// A wildly different query should route to the full database.
	weird, err := sys.Query("SELECT * FROM name WHERE birth_year BETWEEN 1921 AND 1922 AND gender = 'f' AND name LIKE 'Q%'")
	if err != nil {
		t.Fatal(err)
	}
	if weird.FromApproximation && weird.PredictedScore > 0.9 {
		t.Errorf("out-of-distribution query got high confidence %v", weird.PredictedScore)
	}
	// Bad SQL errors.
	if _, err := sys.Query("NOT SQL AT ALL ((("); err == nil {
		t.Error("invalid SQL should error")
	}
}

func TestBuildSetRespectsRequestedSize(t *testing.T) {
	db := testIMDB()
	cfg := testConfig()
	sys, err := Train(db, testWorkload(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	small, err := sys.BuildSet(40)
	if err != nil {
		t.Fatal(err)
	}
	if small.Size() == 0 || small.Size() > 40+20 {
		t.Errorf("requested 40, got %d", small.Size())
	}
}

func TestEstimatorSeparatesKnownFromUnknown(t *testing.T) {
	db := testIMDB()
	w := testWorkload()
	cfg := testConfig()
	sys, err := Train(db, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est := sys.Estimator()
	// Estimates for training queries should correlate with actual scores.
	scores, _ := metrics.PerQueryScores(db, sys.SetDB(), w, cfg.F)
	var predHigh, predLow, nHigh, nLow float64
	for i, q := range w {
		pred, conf := est.Estimate(q.Stmt)
		if conf < 0.99 {
			t.Errorf("training query %d should have confidence ~1, got %v", i, conf)
		}
		if scores[i] >= 0.5 {
			predHigh += pred
			nHigh++
		} else {
			predLow += pred
			nLow++
		}
	}
	if nHigh > 0 && nLow > 0 && predHigh/nHigh <= predLow/nLow {
		t.Errorf("estimator does not separate: high-mean %.3f <= low-mean %.3f",
			predHigh/nHigh, predLow/nLow)
	}
}

func TestDriftDetectionTriggersFineTune(t *testing.T) {
	db := testIMDB()
	// Train only on title-table queries.
	train := workload.MustNew(
		"SELECT * FROM title WHERE genre = 'drama' AND production_year > 1990",
		"SELECT * FROM title WHERE genre = 'comedy' AND rating > 6",
		"SELECT * FROM title WHERE votes > 500 AND rating > 7",
		"SELECT title, rating FROM title WHERE genre = 'action' AND production_year > 1980",
	)
	cfg := testConfig()
	cfg.Episodes = 12
	sys, err := Train(db, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Issue clearly different queries (different table entirely).
	drifting := []string{
		"SELECT * FROM name WHERE gender = 'f' AND birth_year > 1990",
		"SELECT * FROM name WHERE gender = 'm' AND birth_year < 1940",
		"SELECT name, birth_year FROM name WHERE birth_year BETWEEN 1950 AND 1960",
		"SELECT * FROM name WHERE birth_year = 1975",
	}
	triggered := false
	for _, q := range drifting {
		res, err := sys.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.DriftTriggered {
			triggered = true
			break
		}
	}
	if !triggered {
		t.Fatal("drift was not detected after 4 out-of-distribution queries")
	}
	ok, err := sys.FineTuneFromDrift(8)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("fine-tune should have run")
	}
	if sys.Stats().FineTunes != 1 {
		t.Errorf("FineTunes = %d, want 1", sys.Stats().FineTunes)
	}
	// After fine-tuning, the drifted queries should score better than before.
	driftW := workload.MustNew(drifting...)
	after, err := sys.ScoreOn(driftW)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("post-fine-tune drift score: %.3f", after)
	if after == 0 {
		t.Error("fine-tuned system still scores 0 on drifted queries")
	}
}

func TestFineTuneRequiresQueries(t *testing.T) {
	sys, err := Train(testIMDB(), testWorkload(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.FineTune(nil, 4); err == nil {
		t.Error("FineTune with no queries should error")
	}
}

func TestGenerateWorkloadValidAndExecutable(t *testing.T) {
	db := testIMDB()
	w, err := GenerateWorkload(db, GenOptions{N: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(w) < 5 {
		t.Fatalf("generated only %d queries", len(w))
	}
	nonEmpty := 0
	for _, q := range w {
		res, err := sysCount(db, q)
		if err != nil {
			t.Errorf("generated query %q fails: %v", q.SQL, err)
			continue
		}
		if res > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(w)/3 {
		t.Errorf("only %d/%d generated queries are non-empty", nonEmpty, len(w))
	}
	// Join queries should appear given the FK-rich schema.
	joins := 0
	for _, q := range w {
		if len(q.Stmt.Joins) > 0 {
			joins++
		}
	}
	if joins == 0 {
		t.Error("no join queries generated despite detectable FKs")
	}
}

func TestGenerateWorkloadEmptyDB(t *testing.T) {
	if _, err := GenerateWorkload(table.NewDatabase(), GenOptions{N: 5, Seed: 1}); err == nil {
		t.Error("empty database should error")
	}
}

func TestConfigNormalization(t *testing.T) {
	var c Config
	n := c.normalize()
	d := DefaultConfig()
	if n.K != d.K || n.F != d.F || n.ActionSpaceSize != d.ActionSpaceSize {
		t.Errorf("zero config should normalize to defaults: %+v", n)
	}
	if n.TrainFraction != 1 {
		t.Errorf("TrainFraction = %v, want 1", n.TrainFraction)
	}
}

func TestLightConfig(t *testing.T) {
	light := LightConfig()
	full := DefaultConfig()
	if light.TrainFraction >= full.TrainFraction {
		t.Error("light should execute fewer queries")
	}
	if light.RL.LR <= full.RL.LR {
		t.Error("light should raise the learning rate")
	}
	if light.EarlyStopPatience == 0 {
		t.Error("light should early-stop")
	}
}

func TestEnvironmentKindString(t *testing.T) {
	if EnvGSL.String() != "GSL" || EnvDRP.String() != "DRP" || EnvHybrid.String() != "DRP+GSL" {
		t.Error("environment names wrong")
	}
	if EnvironmentKind(99).String() != "unknown" {
		t.Error("unknown kind")
	}
}

// sysCount executes q's statement and returns the row count.
func sysCount(db *table.Database, q workload.Query) (int, error) {
	scores, err := metrics.PerQueryScores(db, db, workload.Workload{q}, 1<<30)
	if err != nil {
		return 0, err
	}
	// score 1 means non-empty or trivially satisfied; use direct execution
	// count via the engine instead for precision.
	_ = scores
	n, err := countRows(db, q)
	return n, err
}
