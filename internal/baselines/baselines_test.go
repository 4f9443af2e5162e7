package baselines

import (
	"errors"
	"testing"
	"time"

	"asqprl/internal/datagen"
	"asqprl/internal/faults"
	"asqprl/internal/metrics"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

func testDB() *table.Database { return datagen.IMDB(0.02, 7) }

func testWorkload() workload.Workload { return workload.IMDB(15, 11) }

func opts() Options {
	return Options{F: 25, Seed: 1, TimeBudget: 300 * time.Millisecond, PoolSize: 3000}
}

// TestAllBaselinesProduceValidSubsets runs every baseline end-to-end and
// checks the contract: at most k rows, all referencing real tuples.
func TestAllBaselinesProduceValidSubsets(t *testing.T) {
	db := testDB()
	w := testWorkload()
	const k = 200
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			s, err := b.Build(db, w, k, opts())
			if err != nil {
				t.Fatalf("%s: %v", b.Name(), err)
			}
			if s.Size() == 0 {
				t.Fatalf("%s: empty subset", b.Name())
			}
			if s.Size() > k {
				t.Errorf("%s: size %d exceeds budget %d", b.Name(), s.Size(), k)
			}
			for _, id := range s.IDs() {
				tab := db.Table(id.Table)
				if tab == nil || id.Row < 0 || id.Row >= tab.NumRows() {
					t.Fatalf("%s: invalid row %v", b.Name(), id)
				}
			}
		})
	}
}

// TestWorkloadAwareBaselinesBeatRandom: baselines that exploit the workload
// (TOP, GRE, VERD, CACH) should outscore pure random sampling on the
// training workload.
func TestWorkloadAwareBaselinesBeatRandom(t *testing.T) {
	db := testDB()
	w := testWorkload()
	const k = 200
	o := opts()

	score := func(b Builder) float64 {
		s, err := b.Build(db, w, k, o)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		v, err := metrics.Score(db, s.Materialize(db), w, o.F)
		if err != nil {
			t.Fatalf("%s score: %v", b.Name(), err)
		}
		return v
	}
	random := score(Random{})
	for _, b := range []Builder{TopQueried{}, Greedy{}, Verdict{}, Caching{}} {
		if got := score(b); got <= random {
			t.Errorf("%s score %.3f should beat RAN %.3f", b.Name(), got, random)
		} else {
			t.Logf("%s: %.3f vs RAN %.3f", b.Name(), got, random)
		}
	}
}

func TestGreedyRespectsTimeBudget(t *testing.T) {
	db := testDB()
	w := testWorkload()
	o := opts()
	o.TimeBudget = 1 * time.Millisecond
	start := time.Now()
	s, err := (Greedy{}).Build(db, w, 500, o)
	if err != nil {
		t.Fatal(err)
	}
	// Execution includes the workload run; the greedy loop itself must stop
	// almost immediately.
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("greedy with 1ms budget took %v", elapsed)
	}
	_ = s // a tiny budget may legitimately give a tiny subset
}

// TestGreedyExecPropagatesScoringErrors: GRE re-evaluates the metric per
// candidate; a failed evaluation is an error, not a score of zero. One fault
// after n clean scans, for n from the first evaluation (the empty set) well
// into the candidate loop.
func TestGreedyExecPropagatesScoringErrors(t *testing.T) {
	db := testDB()
	w := workload.MustNew("SELECT * FROM title WHERE rating > 7")
	defer faults.Disable()
	for _, after := range []int{0, 1, 2, 3, 6} {
		faults.Enable(faults.NewSchedule(1, faults.Injection{
			Point: faults.PointEngineScan, Kind: faults.KindError, After: after, MaxFires: 1}))
		if _, err := (GreedyExec{}).Build(db, w, 2, opts()); !errors.Is(err, faults.ErrInjected) {
			t.Errorf("fault after %d scans: err = %v, want the injected fault", after, err)
		}
	}
}

func TestBruteForceImprovesWithTime(t *testing.T) {
	db := testDB()
	w := testWorkload()
	o := opts()
	o.TimeBudget = 20 * time.Millisecond
	quick, err := (BruteForce{}).Build(db, w, 200, o)
	if err != nil {
		t.Fatal(err)
	}
	o.TimeBudget = 400 * time.Millisecond
	longer, err := (BruteForce{}).Build(db, w, 200, o)
	if err != nil {
		t.Fatal(err)
	}
	sQuick, _ := metrics.Score(db, quick.Materialize(db), w, o.F)
	sLonger, _ := metrics.Score(db, longer.Materialize(db), w, o.F)
	if sLonger < sQuick-0.05 {
		t.Errorf("more search time should not hurt much: %.3f -> %.3f", sQuick, sLonger)
	}
}

func TestRandomEdgeCases(t *testing.T) {
	db := testDB()
	s, err := (Random{}).Build(db, nil, 0, opts())
	if err != nil || s.Size() != 0 {
		t.Errorf("k=0 should give empty subset: %v, %d", err, s.Size())
	}
	huge, err := (Random{}).Build(db, nil, db.TotalRows()+100, opts())
	if err != nil {
		t.Fatal(err)
	}
	if huge.Size() != db.TotalRows() {
		t.Errorf("k > total should cap at %d, got %d", db.TotalRows(), huge.Size())
	}
	empty := table.NewDatabase()
	s, err = (Random{}).Build(empty, nil, 10, opts())
	if err != nil || s.Size() != 0 {
		t.Error("empty db should give empty subset")
	}
}

func TestQRDDiversityExceedsClusteredPick(t *testing.T) {
	// QRD should cover all tables (diverse) rather than collapsing into one.
	db := testDB()
	s, err := (QRD{}).Build(db, nil, 200, opts())
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]bool{}
	for _, id := range s.IDs() {
		tables[id.Table] = true
	}
	if len(tables) < 3 {
		t.Errorf("QRD covers only %d tables", len(tables))
	}
}

func TestSkylinePrefersDominantRows(t *testing.T) {
	// Construct a table where one row dominates everything.
	tb := table.New("scores", table.Schema{
		{Name: "a", Kind: table.KindInt},
		{Name: "b", Kind: table.KindInt},
	})
	tb.AppendRow(table.Row{table.NewInt(100), table.NewInt(100)}) // dominator
	for i := 0; i < 50; i++ {
		tb.AppendRow(table.Row{table.NewInt(int64(i % 10)), table.NewInt(int64(i / 10))})
	}
	db := table.NewDatabase()
	db.Add(tb)
	o := opts()
	o.PoolSize = 100
	s, err := (Skyline{}).Build(db, nil, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Contains(table.RowID{Table: "scores", Row: 0}) {
		t.Errorf("skyline should pick the dominating row, got %v", s.IDs())
	}
}

func TestQuickRAllocationFollowsWorkloadReferences(t *testing.T) {
	db := testDB()
	// Workload referencing only the title table.
	w := workload.MustNew(
		"SELECT * FROM title WHERE genre = 'drama'",
		"SELECT * FROM title WHERE rating > 7",
	)
	s, err := (QuickR{}).Build(db, w, 100, opts())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range s.IDs() {
		if id.Table != "title" {
			t.Fatalf("QUIK picked row from unreferenced table %q", id.Table)
		}
	}
}

func TestCachingKeepsRecentQueries(t *testing.T) {
	db := testDB()
	w := testWorkload()
	s, err := (Caching{}).Build(db, w, 100, opts())
	if err != nil {
		t.Fatal(err)
	}
	// The most recent query's rows should be preferentially present:
	// score on the last query should be at least the score on the first.
	last := workload.Workload{w[len(w)-1]}
	first := workload.Workload{w[0]}
	sd := s.Materialize(db)
	sLast, _ := metrics.Score(db, sd, last, 25)
	sFirst, _ := metrics.Score(db, sd, first, 25)
	t.Logf("CACH: first=%.3f last=%.3f", sFirst, sLast)
	if sLast == 0 && sFirst == 0 {
		t.Error("cache retained nothing from the workload")
	}
}

// TestByName: All holds each of the paper's ten baselines once, by the name
// the tables print.
func TestByName(t *testing.T) {
	seen := map[string]int{}
	for _, b := range All() {
		seen[b.Name()]++
	}
	for _, name := range []string{"RAN", "BRT", "GRE", "GRE+", "TOP", "CACH", "QRD", "SKY", "VERD", "QUIK"} {
		if seen[name] != 1 {
			t.Errorf("All() holds %d baselines named %s, want 1", seen[name], name)
		}
	}
	if len(seen) != 10 {
		t.Errorf("All() holds %d names, want 10: %v", len(seen), seen)
	}
}

// TestLineageCapIsUniform: the term scales a capped query's coverage by
// total/tracked, which estimates |q(S)| only if the tracked tuples are a
// uniform sample of the result. A join's result arrives in FROM-table row
// order, so a prefix of it is one join partner's rows only.
func TestLineageCapIsUniform(t *testing.T) {
	const perParent = lineageCap + 100
	parent := table.New("parent", table.Schema{{Name: "id", Kind: table.KindInt}})
	child := table.New("child", table.Schema{{Name: "parent_id", Kind: table.KindInt}})
	for p := int64(0); p < 2; p++ {
		parent.AppendRow(table.Row{table.NewInt(p)})
		for i := 0; i < perParent; i++ {
			child.AppendRow(table.Row{table.NewInt(p)})
		}
	}
	db := table.NewDatabase()
	db.Add(parent)
	db.Add(child)
	w, err := workload.New("SELECT * FROM parent JOIN child ON parent.id = child.parent_id")
	if err != nil {
		t.Fatal(err)
	}
	q := runWorkload(db, w, 1)[0]
	if q.Total != 2*perParent || len(q.Tuples) != lineageCap {
		t.Fatalf("total %d, tracked %d; want %d, %d", q.Total, len(q.Tuples), 2*perParent, lineageCap)
	}
	perParentTracked := map[int]int{}
	for _, tuple := range q.Tuples {
		for _, id := range tuple {
			if id.Table == "parent" {
				perParentTracked[id.Row]++
			}
		}
	}
	// Each parent's share of a uniform sample is 200 ± 10 (one σ); a prefix
	// gives 400 and 0.
	for p := 0; p < 2; p++ {
		if n := perParentTracked[p]; n < lineageCap/4 {
			t.Errorf("parent row %d is in %d of %d tracked tuples; a uniform sample has about %d", p, n, lineageCap, lineageCap/2)
		}
	}
}
