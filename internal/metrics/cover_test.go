package metrics_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"asqprl/internal/baselines"
	"asqprl/internal/core"
	"asqprl/internal/datagen"
	"asqprl/internal/engine"
	"asqprl/internal/metrics"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// coverCase is one input of the tracker property suite: an index, the row
// groups a caller would add to it, and — when every result tuple is tracked
// and the workload is SPJ — the database and workload it must agree with
// metrics.Score on.
type coverCase struct {
	name   string
	ix     *metrics.CoverIndex
	groups [][]table.RowID
	frame  int
	// exact inputs; db is nil when the index is capped.
	db *table.Database
	w  workload.Workload
}

// trackAll executes w with lineage and tracks every result tuple.
func trackAll(t *testing.T, db *table.Database, w workload.Workload) []metrics.TrackedQuery {
	t.Helper()
	var out []metrics.TrackedQuery
	for _, q := range w {
		res, err := engine.ExecuteWith(db, q.Stmt, engine.Options{TrackLineage: true})
		if err != nil {
			t.Fatalf("%s: %v", q.SQL, err)
		}
		tq := metrics.TrackedQuery{Weight: q.Weight, Total: res.Table.NumRows(), Tuples: metrics.Tuples(res.Lineage)}
		if len(tq.Tuples) != tq.Total {
			t.Fatalf("%s: %d result rows share %d lineages; the exact cases need one each", q.SQL, tq.Total, len(tq.Tuples))
		}
		out = append(out, tq)
	}
	return out
}

// tinyDB is the brute-force fixture: 30 rows over two tables.
func tinyDB() *table.Database {
	item := table.New("item", table.Schema{
		{Name: "id", Kind: table.KindInt}, {Name: "colour", Kind: table.KindString}, {Name: "price", Kind: table.KindInt},
	})
	colours := []string{"red", "green", "blue"}
	for i := 0; i < 18; i++ {
		item.AppendRow(table.Row{table.NewInt(int64(i)), table.NewString(colours[i%3]), table.NewInt(int64(10 + 7*i%50))})
	}
	review := table.New("review", table.Schema{{Name: "item_id", Kind: table.KindInt}, {Name: "stars", Kind: table.KindInt}})
	for i := 0; i < 12; i++ {
		review.AppendRow(table.Row{table.NewInt(int64(i * 5 % 18)), table.NewInt(int64(1 + i%5))})
	}
	db := table.NewDatabase()
	db.Add(item)
	db.Add(review)
	return db
}

func tinyWorkload(t *testing.T) workload.Workload {
	t.Helper()
	w, err := workload.New(
		"SELECT * FROM item WHERE colour = 'red'",
		"SELECT * FROM item WHERE price > 40",
		"SELECT id, price FROM item WHERE colour = 'blue' AND price < 30",
		"SELECT * FROM review WHERE stars >= 4",
		"SELECT item.id, review.stars FROM item JOIN review ON item.id = review.item_id WHERE review.stars <= 2",
	)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

const tinyFrame = 3

func coverCases(t *testing.T) []coverCase {
	t.Helper()
	imdb := datagen.IMDB(0.02, 7)

	// The learner's index: representatives capped at 60 tracked tuples, each
	// with a relaxed variant, and the candidate groups the agent picks from.
	cfg := core.DefaultConfig()
	cfg.F = 25
	cfg.NumRepresentatives = 8
	cfg.ActionSpaceSize = 64
	cfg.MaxTrackedPerQuery = 60
	cfg.Seed = 1
	pre, err := core.Preprocess(imdb, workload.IMDB(18, 11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	learner := coverCase{name: "learner-capped", ix: pre.Cover, frame: cfg.F}
	for _, c := range pre.Candidates {
		learner.groups = append(learner.groups, c.Rows)
	}

	// The baselines' index: the training workload, every tuple tracked, one
	// group per result tuple.
	w := workload.IMDB(15, 11)
	exact := coverCase{name: "baselines-exact", frame: 25, db: imdb, w: w}
	exact.ix = metrics.NewCoverIndex(trackAll(t, imdb, w), exact.frame)
	for _, q := range exact.ix.Queries {
		exact.groups = append(exact.groups, q.Tuples...)
	}

	tiny := coverCase{name: "tiny", frame: tinyFrame, db: tinyDB(), w: tinyWorkload(t)}
	tiny.ix = metrics.NewCoverIndex(trackAll(t, tiny.db, tiny.w), tiny.frame)
	for _, tab := range tiny.db.Tables() {
		for r := 0; r < tab.NumRows(); r++ {
			tiny.groups = append(tiny.groups, []table.RowID{{Table: tab.Name, Row: r}})
		}
	}
	return []coverCase{learner, exact, tiny}
}

// counters is everything a tracker exposes about its state.
func counters(tr *metrics.Tracker, ix *metrics.CoverIndex) []float64 {
	out := []float64{tr.Score(), float64(tr.Size())}
	for q := range ix.Queries {
		out = append(out, tr.Term(q))
	}
	return out
}

// TestTrackerProperties is the oracle suite for the one reward engine: what
// must hold of Equation 1 kept incrementally, on the learner's index, the
// baselines' and a hand-made one.
func TestTrackerProperties(t *testing.T) {
	for _, c := range coverCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))

			t.Run("bounded-and-monotone", func(t *testing.T) {
				tr := c.ix.NewTracker()
				last := tr.Score()
				if last < 0 || last > 1 {
					t.Fatalf("empty score %v outside [0, 1]", last)
				}
				for _, i := range rng.Perm(len(c.groups)) {
					added := tr.Add(c.groups[i])
					s := tr.Score()
					if s < last || s > 1+1e-12 {
						t.Fatalf("score %v -> %v after adding %d rows", last, s, added)
					}
					last = s
				}
				if last <= 0 {
					t.Error("every group added, score still 0")
				}
				if sub := tr.Subset(); sub.Size() != tr.Size() {
					t.Errorf("Subset has %d rows, Size says %d", sub.Size(), tr.Size())
				}
			})

			t.Run("remove-undoes-add", func(t *testing.T) {
				// Once on the index as it is and once with no frame, where a
				// term is covered/tracked and no min(1, ·) hides a count.
				for _, ix := range []*metrics.CoverIndex{c.ix, metrics.NewCoverIndex(c.ix.Queries, 0)} {
					tr := ix.NewTracker()
					// Groups repeat and overlap: a row held twice must
					// survive one removal.
					var picks []int
					var before [][]float64
					for i := 0; i < 40; i++ {
						pick := rng.Intn(len(c.groups))
						picks = append(picks, pick)
						before = append(before, counters(tr, ix))
						tr.Add(c.groups[pick])
					}
					for i := len(picks) - 1; i >= 0; i-- {
						tr.Remove(c.groups[picks[i]])
						if got := counters(tr, ix); !slices.Equal(got, before[i]) {
							t.Fatalf("after undoing add %d: counters %v, want %v", i, got, before[i])
						}
					}
					if tr.Size() != 0 {
						t.Errorf("size after removing everything = %d", tr.Size())
					}
				}
			})

			t.Run("order-invariant", func(t *testing.T) {
				shuffled := make([]metrics.TrackedQuery, len(c.ix.Queries))
				for q, tq := range c.ix.Queries {
					lineage := make([][]table.RowID, len(tq.Tuples))
					for i, j := range rng.Perm(len(tq.Tuples)) {
						rows := append([]table.RowID(nil), tq.Tuples[j]...)
						rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
						lineage[i] = rows
					}
					shuffled[q] = metrics.TrackedQuery{Weight: tq.Weight, Total: tq.Total, Tuples: metrics.Tuples(lineage)}
				}
				a, b := c.ix.NewTracker(), metrics.NewCoverIndex(shuffled, c.frame).NewTracker()
				for _, i := range rng.Perm(len(c.groups))[:len(c.groups)/2] {
					rows := append([]table.RowID(nil), c.groups[i]...)
					a.Add(rows)
					rng.Shuffle(len(rows), func(x, y int) { rows[x], rows[y] = rows[y], rows[x] })
					b.Add(rows)
					if a.Score() != b.Score() {
						t.Fatalf("score %v on the index as built, %v on the shuffled one", a.Score(), b.Score())
					}
				}
			})

			t.Run("equals-executed-metric", func(t *testing.T) {
				if c.db == nil {
					t.Skip("capped index: the term is an estimate")
				}
				tr := c.ix.NewTracker()
				check := func() {
					want, err := metrics.Score(c.db, tr.Subset().Materialize(c.db), c.w, c.frame)
					if err != nil {
						t.Fatal(err)
					}
					if got := tr.Score(); math.Abs(got-want) > 1e-12 {
						t.Fatalf("tracker %v, metrics.Score %v at %d rows", got, want, tr.Size())
					}
				}
				check()
				for n, i := range rng.Perm(len(c.groups)) {
					tr.Add(c.groups[i])
					if n%7 == 0 {
						check()
					}
				}
				check()
			})
		})
	}
}

// TestBruteForceOptimumBounds enumerates every set of up to six rows of the
// tiny fixture and holds the best score per size over everything that builds a
// set: every baseline and the trained learner. Equation 1 is monotone,
// so a builder that returns fewer rows than it may is bounded all the same.
func TestBruteForceOptimumBounds(t *testing.T) {
	const maxSize, k = 6, 4
	db, w := tinyDB(), tinyWorkload(t)
	ix := metrics.NewCoverIndex(trackAll(t, db, w), tinyFrame)
	var rows []table.RowID
	for _, tab := range db.Tables() {
		for r := 0; r < tab.NumRows(); r++ {
			rows = append(rows, table.RowID{Table: tab.Name, Row: r})
		}
	}
	if len(rows) > 40 {
		t.Fatalf("fixture has %d rows; enumeration is sized for 40", len(rows))
	}

	best := make([]float64, maxSize+1)
	tr := ix.NewTracker()
	var enumerate func(from int)
	enumerate = func(from int) {
		n := tr.Size()
		if s := tr.Score(); s > best[n] {
			best[n] = s
		}
		if n == maxSize {
			return
		}
		for i := from; i < len(rows); i++ {
			tr.Add(rows[i : i+1])
			enumerate(i + 1)
			tr.Remove(rows[i : i+1])
		}
	}
	enumerate(0)
	for n := 1; n <= maxSize; n++ {
		if best[n] < best[n-1] {
			t.Fatalf("optimum at %d rows %v below optimum at %d rows %v", n, best[n], n-1, best[n-1])
		}
	}
	t.Logf("optimum by size: %.4f", best)

	bound := func(name string, s *table.Subset) {
		t.Helper()
		if s.Size() > maxSize {
			t.Fatalf("%s built %d rows; the enumeration stops at %d", name, s.Size(), maxSize)
		}
		got, err := metrics.Score(db, s.Materialize(db), w, tinyFrame)
		if err != nil {
			t.Fatal(err)
		}
		if got > best[s.Size()]+1e-12 {
			t.Errorf("%s scores %v with %d rows, above the optimum %v", name, got, s.Size(), best[s.Size()])
		}
		t.Logf("%s: %.4f with %d rows (optimum %.4f)", name, got, s.Size(), best[s.Size()])
	}
	// BRT and GRE search until their budget runs out; everything else finishes
	// on this fixture in well under it.
	opts := baselines.Options{F: tinyFrame, Seed: 1, TimeBudget: 200 * time.Millisecond}
	for _, b := range baselines.All() {
		s, err := b.Build(db, w, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		bound(b.Name(), s)
	}

	cfg := core.DefaultConfig()
	cfg.K = k
	cfg.F = tinyFrame
	cfg.NumRepresentatives = 4
	cfg.ActionSpaceSize = 32
	cfg.ActionGroupSize = 1 // one result tuple per action: at most one row over budget
	cfg.Episodes = 16
	cfg.Seed = 1
	sys, err := core.Train(db, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bound("ASQP-RL", sys.Set())
}
