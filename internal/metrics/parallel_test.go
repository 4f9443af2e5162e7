package metrics

import (
	"fmt"
	"sync"
	"testing"

	"asqprl/internal/workload"
)

func sweepWorkload(n int) workload.Workload {
	sqls := make([]string, n)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("SELECT * FROM nums WHERE v < %d", (i+1)*3)
	}
	return workload.MustNew(sqls...)
}

// TestPerQueryScoresParallelMatchesSerial checks that every parallelism
// setting yields identical per-query scores and the identical joined error.
func TestPerQueryScoresParallelMatchesSerial(t *testing.T) {
	db := numsDB(200)
	approx := subsetDB(db, []int{0, 1, 2, 3, 4, 50, 51, 52, 150})
	w := sweepWorkload(40)
	// One broken query exercises error-order determinism.
	w = append(w, workload.MustNew("SELECT * FROM missing_table")...)

	serialScores, serialErr := PerQueryScoresWith(db, approx, w, 10, ScoreOptions{Parallelism: -1})
	for _, par := range []int{0, 2, 8} {
		scores, err := PerQueryScoresWith(db, approx, w, 10, ScoreOptions{Parallelism: par})
		if len(scores) != len(serialScores) {
			t.Fatalf("parallelism %d: %d scores, want %d", par, len(scores), len(serialScores))
		}
		for i := range scores {
			if scores[i] != serialScores[i] {
				t.Errorf("parallelism %d: score[%d] = %v, serial %v", par, i, scores[i], serialScores[i])
			}
		}
		if (err == nil) != (serialErr == nil) || (err != nil && err.Error() != serialErr.Error()) {
			t.Errorf("parallelism %d: err = %v, serial %v", par, err, serialErr)
		}
	}
}

// TestReferenceCacheHitsAndInvalidate checks the memoization contract: the
// first pass misses per distinct query, repeat passes hit, and the way to
// invalidate — a fresh cache for the same database — starts cold.
func TestReferenceCacheHitsAndInvalidate(t *testing.T) {
	db := numsDB(100)
	approx := subsetDB(db, []int{0, 1, 2})
	w := sweepWorkload(12)
	cache := NewReferenceCache(db)
	opts := ScoreOptions{Parallelism: -1, Cache: cache}

	base, err := ScoreWith(db, approx, w, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Misses() != 12 || cache.Hits() != 0 {
		t.Fatalf("after first pass: hits=%d misses=%d, want 0/12", cache.Hits(), cache.Misses())
	}
	cached, err := ScoreWith(db, approx, w, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cached != base {
		t.Errorf("cached score %v != uncached %v", cached, base)
	}
	if cache.Hits() != 12 || cache.Misses() != 12 {
		t.Fatalf("after second pass: hits=%d misses=%d, want 12/12", cache.Hits(), cache.Misses())
	}
	if cache.Len() != 12 {
		t.Fatalf("cache len = %d, want 12", cache.Len())
	}
	fresh := NewReferenceCache(db)
	if _, err := ScoreWith(db, approx, w, 10, ScoreOptions{Parallelism: -1, Cache: fresh}); err != nil {
		t.Fatal(err)
	}
	if fresh.Misses() != 12 || fresh.Hits() != 0 {
		t.Fatalf("fresh cache: hits=%d misses=%d, want 0/12", fresh.Hits(), fresh.Misses())
	}
}

// TestReferenceCacheBypassesOtherDatabases checks a cache bound to one
// database never serves counts when scoring against another.
func TestReferenceCacheBypassesOtherDatabases(t *testing.T) {
	bound := numsDB(100)
	other := numsDB(7) // same schema, different contents
	approx := subsetDB(other, []int{0, 1})
	w := sweepWorkload(4)
	cache := NewReferenceCache(bound)
	opts := ScoreOptions{Parallelism: -1, Cache: cache}

	// Warm the cache on the bound database.
	if _, err := ScoreWith(bound, subsetDB(bound, []int{0}), w, 10, opts); err != nil {
		t.Fatal(err)
	}
	misses := cache.Misses()

	// Scoring against the other database must not touch the memo.
	got, err := ScoreWith(other, approx, w, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Score(other, approx, w, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("bypassed score %v != direct score %v", got, want)
	}
	if cache.Misses() != misses || cache.Len() != 4 {
		t.Errorf("cache touched by foreign database: misses=%d len=%d", cache.Misses(), cache.Len())
	}
}

// TestReferenceCacheConcurrent hammers one cache from many goroutines with a
// mix of hits and misses. Every returned count must be
// correct regardless of interleaving (the serving layer makes concurrent
// scoring the default path); run under -race this also proves memory safety.
func TestReferenceCacheConcurrent(t *testing.T) {
	db := numsDB(200)
	w := sweepWorkload(16)
	cache := NewReferenceCache(db)

	// Ground truth, computed serially without the cache.
	want := make([]int, len(w))
	for i, q := range w {
		n, err := (*ReferenceCache)(nil).FullCount(db, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = n
	}

	const goroutines = 16
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (g*7 + i) % len(w)
				n, err := cache.FullCount(db, w[qi])
				if err != nil {
					errs <- err
					return
				}
				if n != want[qi] {
					errs <- fmt.Errorf("goroutine %d: count[%d] = %d, want %d", g, qi, n, want[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if cache.Hits()+cache.Misses() == 0 {
		t.Error("cache never consulted")
	}
}

// TestReferenceCacheNilReceiver checks a nil cache is a transparent no-op.
func TestReferenceCacheNilReceiver(t *testing.T) {
	db := numsDB(50)
	var cache *ReferenceCache
	n, err := cache.FullCount(db, sweepWorkload(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("nil-cache count = %d, want 3", n)
	}
}
