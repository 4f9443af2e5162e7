package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"asqprl/internal/engine"
)

// TestQueryContextConcurrent runs the full ladder from many goroutines at
// once — approximation-routed queries, full-database fallbacks, row-budget
// degradations, and short deadlines all mixed — because the serving layer
// makes concurrent access the default path. Under -race this proves the
// System's inference state (estimator, drift detector, reference cache,
// metrics) is memory-safe; the assertions prove each answer is still
// individually correct.
func TestQueryContextConcurrent(t *testing.T) {
	sys := trainedSystem(t)
	type probe struct {
		sql     string
		opts    QueryOptions
		timeout time.Duration // the caller's deadline, when nonzero
		check   func(*QueryResult, error) error
		comment string
	}
	probes := []probe{
		{
			sql:  "SELECT * FROM title WHERE rating > 7",
			opts: QueryOptions{},
			check: func(res *QueryResult, err error) error {
				if err != nil {
					return err
				}
				if res.Table == nil {
					return errors.New("nil table")
				}
				return nil
			},
			comment: "in-distribution",
		},
		{
			sql:  "SELECT * FROM name WHERE birth_year > 1800",
			opts: QueryOptions{},
			check: func(res *QueryResult, err error) error {
				if err != nil {
					return err
				}
				if res.Table == nil {
					return errors.New("nil table")
				}
				return nil
			},
			comment: "full-database fallback",
		},
		{
			sql:  "SELECT * FROM name WHERE birth_year > 1800",
			opts: QueryOptions{MaxRows: 3},
			check: func(res *QueryResult, err error) error {
				if err != nil {
					return err
				}
				if res.Degraded && res.Table.NumRows() > 3 {
					return fmt.Errorf("degraded result has %d rows, budget 3", res.Table.NumRows())
				}
				return nil
			},
			comment: "row-budget degradation",
		},
		{
			sql:     "SELECT * FROM title t JOIN cast_info c ON t.id = c.title_id",
			timeout: time.Nanosecond,
			check: func(res *QueryResult, err error) error {
				if err == nil {
					return nil // fast machines can beat even a tiny deadline
				}
				if !errors.Is(err, engine.ErrDeadline) && !errors.Is(err, engine.ErrCanceled) {
					return fmt.Errorf("expired deadline returned %v", err)
				}
				return nil
			},
			comment: "expired deadline",
		},
		{
			sql:  "SELECT * FROM title WHERE rating > 9",
			opts: QueryOptions{SkipFull: true},
			check: func(res *QueryResult, err error) error {
				if err != nil {
					return err
				}
				if res.FullAttempted {
					return errors.New("SkipFull query attempted the full database")
				}
				return nil
			},
			comment: "breaker routing",
		},
	}

	const goroutines = 16
	const iters = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p := probes[(g+i)%len(probes)]
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if p.timeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, p.timeout)
				}
				res, err := sys.QueryContext(ctx, p.sql, p.opts)
				cancel()
				if cerr := p.check(res, err); cerr != nil {
					errs <- fmt.Errorf("goroutine %d (%s): %w", g, p.comment, cerr)
					return
				}
			}
		}(g)
	}
	// Concurrent scoring exercises the shared reference cache alongside the
	// query path.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sys.ScoreOn(testWorkload()); err != nil {
				errs <- fmt.Errorf("concurrent ScoreOn: %w", err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
