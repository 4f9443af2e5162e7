package main

import (
	"context"
	"fmt"
	"sync"

	"asqprl/internal/core"
	"asqprl/internal/engine"
	"asqprl/internal/sqlparse"
)

// oracle computes, outside the program under test, what a correct answer to
// a statement looks like on each rung: |q(S)| on the approximation set and
// |q(T)| on the full database, from the bench's own copy of the data and the
// trained snapshot.
type oracle struct {
	sys *core.System
}

// fill computes the oracle fields of st once.
func (o *oracle) fill(ctx context.Context, st *stmt) error {
	if st.filled {
		return nil
	}
	parsed, err := sqlparse.Parse(st.sql)
	if err != nil {
		return fmt.Errorf("oracle: %q: %w", st.sql, err)
	}
	full, err := engine.CountContext(ctx, o.sys.DB(), parsed, engine.Options{})
	if err != nil {
		return fmt.Errorf("oracle: %q on the full database: %w", st.sql, err)
	}
	approx, err := engine.CountContext(ctx, o.sys.SetDB(), parsed, engine.Options{})
	if err != nil {
		return fmt.Errorf("oracle: %q on the approximation set: %w", st.sql, err)
	}
	st.parsed, st.spj, st.full, st.approx, st.filled = parsed, !parsed.HasAggregates(), full, approx, true
	return nil
}

// fillAll fills every statement, two at a time (the box has two cores and the
// server is idle whenever the oracle runs).
func (o *oracle) fillAll(ctx context.Context, stmts []*stmt) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				failed := first != nil
				mu.Unlock()
				if i >= len(stmts) || failed {
					return
				}
				if err := o.fill(ctx, stmts[i]); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// expect returns the row count a correct response from the named rung
// carries.
func (st *stmt) expect(fromApprox bool) int {
	if fromApprox {
		return st.approx
	}
	return st.full
}

// score is one statement's Equation-1 term for a served row count:
// min(1, rows / min(F, |q(T)|)), and 1 when the true answer is empty.
func (st *stmt) score(rows int) float64 {
	if st.full == 0 {
		return 1
	}
	denom := min(frameF, st.full)
	return min(1, float64(rows)/float64(denom))
}
