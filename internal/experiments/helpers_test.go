package experiments

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestBootstrap holds the interval on a fixed sample: it contains the mean,
// it narrows as seeds and queries are added, and it is a function of its seed.
func TestBootstrap(t *testing.T) {
	sample := func(seeds, queries int) Score {
		rng := rand.New(rand.NewSource(7))
		s := make(Score, seeds)
		for i := range s {
			shift := 0.2 * rng.Float64() // seeds differ, as datasets do
			for range queries {
				s[i] = append(s[i], math.Min(1, shift+0.6*rng.Float64()))
			}
		}
		return s
	}
	width := func(s Score) float64 {
		lo, hi := s.Interval()
		if m := s.Mean(); m < lo || m > hi {
			t.Errorf("mean %.4f outside its interval [%.4f, %.4f]", m, lo, hi)
		}
		return hi - lo
	}
	small, large := width(sample(3, 10)), width(sample(12, 200))
	if small <= 0 || large >= small {
		t.Errorf("interval did not narrow with n: %.4f at 3x10, %.4f at 12x200", small, large)
	}

	s := sample(5, 40)
	lo1, hi1 := bootstrap(s, rand.New(rand.NewSource(3)))
	lo2, hi2 := bootstrap(s, rand.New(rand.NewSource(3)))
	lo3, hi3 := bootstrap(s, rand.New(rand.NewSource(4)))
	if lo1 != lo2 || hi1 != hi2 {
		t.Error("same seed, different bounds")
	}
	if lo1 == lo3 && hi1 == hi3 {
		t.Error("different seeds, identical bounds: the rng is not used")
	}
	if lo, hi := bootstrap(nil, rand.New(rand.NewSource(1))); lo != 0 || hi != 0 {
		t.Errorf("empty sample: [%v, %v]", lo, hi)
	}
}

func TestScoreCell(t *testing.T) {
	if got := (Score{{0.5}}).String(); got != "0.500 [0.500, 0.500]" {
		t.Errorf("single score = %q", got)
	}
	// The mean is over seeds of per-seed means, not over pooled queries.
	s := Score{{0.2, 0.4}, {0.9}}
	if got := s.Mean(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("mean = %v, want 0.6", got)
	}
	if got := s.String(); !strings.HasPrefix(got, "0.600 [") || got != s.String() {
		t.Errorf("score cell = %q, then %q", got, s.String())
	}
	if got := (Tally{Won: 7, Lost: 2, Tied: 1}).String(); got != "7-2-1" {
		t.Errorf("tally = %q", got)
	}
}

func TestFmtDurations(t *testing.T) {
	for d, want := range map[time.Duration]string{
		800 * time.Nanosecond:   "0.8µs",
		12500 * time.Nanosecond: "12.5µs",
		1500 * time.Microsecond: "1.5ms",
		2500 * time.Millisecond: "2.50s",
	} {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
	if got := (Durations{time.Millisecond, 3 * time.Millisecond}).String(); got != "2.0ms" {
		t.Errorf("Durations = %q", got)
	}
	if got := (Durations{}).String(); got != "0.0µs" {
		t.Errorf("empty Durations = %q", got)
	}
}

func TestLoadDatasetDeterministicAndSplit(t *testing.T) {
	p := Fast()
	a := loadDataset("IMDB", p, 7)
	b := loadDataset("IMDB", p, 7)
	if len(a.train) != len(b.train) || a.train[0].SQL != b.train[0].SQL || len(a.test) != len(b.test) {
		t.Error("dataset loading not deterministic")
	}
	if len(a.train) == 0 || len(a.train) >= p.WorkloadSize {
		t.Errorf("training workload has %d of %d statements", len(a.train), p.WorkloadSize)
	}
	if len(a.test) < heldOutFactor*p.WorkloadSize/2 {
		t.Errorf("held-out workload has %d statements, want about %d", len(a.test), heldOutFactor*p.WorkloadSize)
	}
	// Train and test are disjoint, test holds no statement twice, and its
	// weights are normalised.
	seen := map[string]bool{}
	for _, q := range a.train {
		seen[q.SQL] = true
	}
	var weight float64
	for _, q := range a.test {
		if seen[q.SQL] {
			t.Errorf("query %q in both train and test, or twice in test", q.SQL)
		}
		seen[q.SQL] = true
		weight += q.Weight
	}
	if math.Abs(weight-1) > 1e-9 {
		t.Errorf("test weights sum to %v", weight)
	}
	for _, name := range []string{"MAS", "FLIGHTS"} {
		ds := loadDataset(name, p, 7)
		if ds.db.TotalRows() == 0 || len(ds.test) < heldOutFactor*p.WorkloadSize/2 {
			t.Errorf("%s: %d rows, %d held-out statements", name, ds.db.TotalRows(), len(ds.test))
		}
	}
}

func TestQueryAvgEmptyWorkload(t *testing.T) {
	p := Fast()
	ds := loadDataset("IMDB", p, 1)
	if d, err := queryAvg(ds.db, nil, 5); d != 0 || err != nil {
		t.Errorf("empty workload queryAvg = %v, %v", d, err)
	}
	if d, err := queryAvg(ds.db, ds.test, 3); d <= 0 || err != nil {
		t.Errorf("queryAvg = %v, %v, want > 0", d, err)
	}
}

func TestDelayedFlightsInterestShape(t *testing.T) {
	w := delayedFlightsInterest(3)
	if len(w) != 20 {
		t.Fatalf("interest queries = %d, want 20", len(w))
	}
	for _, q := range w {
		if !strings.Contains(q.SQL, "delay") {
			t.Errorf("interest query off-topic: %s", q.SQL)
		}
	}
}
