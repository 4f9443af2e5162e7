package metrics

import (
	"sync"
	"sync/atomic"

	"asqprl/internal/engine"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// ReferenceCache memoizes full-database query results — the |q(𝒯)| counts of
// Equation 1 — keyed by canonical SQL. Every baseline comparison scores
// different approximation sets against the *same* full database, so without
// the cache the 11-baseline experiment harness executes each reference query
// once per baseline instead of once overall; the full-database side is by far
// the most expensive part of scoring.
//
// A cache is bound to the exact *table.Database it was constructed for, which
// nothing mutates after loading. Scoring against any other database bypasses
// the cache entirely (no stale reads, no pollution). Only successful counts
// are cached; failures are recomputed so transient errors cannot stick.
//
// All methods are safe for concurrent use by the scoring worker pool.
type ReferenceCache struct {
	full   *table.Database
	mu     sync.RWMutex
	counts map[string]int
	hits   atomic.Int64
	misses atomic.Int64
}

// NewReferenceCache returns an empty cache bound to the given full database.
func NewReferenceCache(full *table.Database) *ReferenceCache {
	return &ReferenceCache{full: full, counts: make(map[string]int)}
}

// FullCount returns |q(full)| for the query, serving it from the memo when
// full is the cache's bound database. Cache hits and misses are counted on
// the cache (Hits, Misses).
func (c *ReferenceCache) FullCount(full *table.Database, q workload.Query) (int, error) {
	if c == nil || full != c.full {
		return engine.Count(full, q.Stmt)
	}
	key := q.Stmt.String()
	c.mu.RLock()
	n, ok := c.counts[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return n, nil
	}
	c.misses.Add(1)
	n, err := engine.Count(full, q.Stmt)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.counts[key] = n
	c.mu.Unlock()
	return n, nil
}

// Len returns the number of memoized reference counts.
func (c *ReferenceCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.counts)
}

// Hits returns the number of cache hits served.
func (c *ReferenceCache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of cache misses (reference executions).
func (c *ReferenceCache) Misses() int64 { return c.misses.Load() }
