package core

import (
	"strings"
	"testing"

	"asqprl/internal/table"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	db := testIMDB()
	w := testWorkload()
	cfg := testConfig()
	sys, err := Train(db, w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	data, err := sys.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBytes(db, data)
	if err != nil {
		t.Fatal(err)
	}

	// Same approximation set.
	if loaded.Set().Size() != sys.Set().Size() {
		t.Fatalf("set size %d != %d", loaded.Set().Size(), sys.Set().Size())
	}
	for _, id := range sys.Set().IDs() {
		if !loaded.Set().Contains(id) {
			t.Fatalf("loaded set missing %v", id)
		}
	}

	// Same scores on the training workload.
	a, err := sys.ScoreOn(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.ScoreOn(w)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("scores differ after load: %v vs %v", a, b)
	}

	// Same estimator behaviour.
	for _, q := range w[:3] {
		p1, c1 := sys.Estimator().Estimate(q.Stmt)
		p2, c2 := loaded.Estimator().Estimate(q.Stmt)
		if p1 != p2 || c1 != c2 {
			t.Errorf("estimator differs for %q: (%v,%v) vs (%v,%v)", q.SQL, p1, c1, p2, c2)
		}
	}

	// Same policy outputs (networks restored exactly).
	state := make([]float64, loaded.agent.ActorParams().InputDim())
	state[0] = 0.5
	pa := sys.agent.Policy(state, nil)
	pb := loaded.agent.Policy(state, nil)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("restored actor differs from saved one")
		}
	}

	// Queries still route.
	res, err := loaded.Query(w[0].SQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table == nil {
		t.Error("loaded system returned nil result")
	}
}

func TestLoadedSystemCanBuildSetAndFineTune(t *testing.T) {
	db := testIMDB()
	w := testWorkload()
	sys, err := Train(db, w, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBytes(db, data)
	if err != nil {
		t.Fatal(err)
	}
	// BuildSet triggers lazy re-preprocessing.
	sub, err := loaded.BuildSet(60)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Size() == 0 {
		t.Error("rebuilt set empty")
	}
	// Fine-tuning also works on a loaded system.
	extra := testWorkload()[:2]
	if err := loaded.FineTune(extra, 4); err != nil {
		t.Fatal(err)
	}
}

func TestLoadAgainstWrongDatabase(t *testing.T) {
	db := testIMDB()
	sys, err := Train(db, testWorkload(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	// A database missing the referenced rows must be rejected.
	tiny := table.NewDatabase()
	tiny.Add(table.New("title", db.Table("title").Schema))
	if _, err := LoadBytes(tiny, data); err == nil {
		t.Error("loading against an incompatible database should fail")
	}
	if !strings.Contains(errString(LoadBytes(tiny, data)), "absent") &&
		!strings.Contains(errString(LoadBytes(tiny, data)), "load") {
		t.Error("error should explain the mismatch")
	}
}

func errString(_ *System, err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestLoadRejectsScoreCountMismatch: Save writes one estimator score per
// training statement, so a snapshot with any other count is malformed and
// loading it fails rather than refitting the estimator.
func TestLoadRejectsScoreCountMismatch(t *testing.T) {
	sys, err := trainedSystem(t).Clone()
	if err != nil {
		t.Fatal(err)
	}
	sys.est.scores = sys.est.scores[:len(sys.est.scores)-1]
	data, err := sys.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBytes(sys.DB(), data); err == nil || !strings.Contains(err.Error(), "estimator scores") {
		t.Fatalf("load with a truncated score list: err = %v, want the count mismatch", err)
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := LoadBytes(testIMDB(), []byte("junk")); err == nil {
		t.Error("garbage snapshot should fail")
	}
}
