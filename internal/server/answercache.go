package server

import (
	"hash/maphash"
	"sync"
	"unsafe"

	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// maxAnswerCacheBytes bounds what one generation's answer cache holds, each
// entry charged by cachedAnswer.size.
const maxAnswerCacheBytes = 768 << 10

// answerEntryOverhead is what an entry is charged beside its bytes: the entry
// itself, its parsed statement and rewrite, and its map slot, roughly.
const answerEntryOverhead = 512

// doorkeeperSlots is the size of the fingerprint table that admits an answer
// on its statement's second sighting: a statement that never repeats leaves
// one fingerprint behind, in a table of fixed size.
const doorkeeperSlots = 1 << 13

// fingerprintSeed keys the statements' fingerprints for the process's life.
var fingerprintSeed = maphash.MakeSeed()

// answerCache keeps the clean approximation-rung answers of one publish
// generation, keyed by the request's SQL text and its effective row cap. It
// lives on the generation's liveSystem, so a swap, rollback or recovery
// publishes an empty one and no answer outlives the rows it was encoded from.
type answerCache struct {
	mu      sync.Mutex
	entries map[uint64]*cachedAnswer // by fingerprint
	order   []*cachedAnswer          // admission order, oldest first
	bytes   int
	seen    []uint64 // doorkeeper: fingerprints sighted once, by slot
}

// cachedAnswer is what a hit needs to answer as the ladder did: the body's
// head, and for drift, the WAL and the audit what the miss knew.
type cachedAnswer struct {
	fp        uint64
	sql       string // the request's SQL text
	maxRows   int
	head      []byte // appendAnswerHead's bytes
	stmt      *sqlparse.Select
	est       *sqlparse.Select // core.QueryResult.Estimated
	conf      float64
	canonical string // stmt.String(), when the WAL or the auditor reads it
	shape     string // the answering plan's shape, when the auditor reads it
	rows      int
	agg       *table.RowSet // an aggregate's own rows, for the auditor

	referenced bool // hit since eviction last passed it; guarded by the cache's mu
}

func newAnswerCache() *answerCache {
	return &answerCache{entries: map[uint64]*cachedAnswer{}, seen: make([]uint64, doorkeeperSlots)}
}

// fingerprint is the cache key of a request for sql under row cap maxRows.
// Zero marks an empty doorkeeper slot, so it is never a fingerprint.
func fingerprint(sql string, maxRows int) uint64 {
	return (maphash.String(fingerprintSeed, sql) ^ uint64(maxRows)*0x9e3779b97f4a7c15) | 1
}

// get returns the entry for sql under maxRows, or nil.
func (c *answerCache) get(fp uint64, sql string, maxRows int) *cachedAnswer {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[fp]
	if e == nil || e.sql != sql || e.maxRows != maxRows {
		return nil
	}
	e.referenced = true
	return e
}

// sighted reports whether fp was sighted before, recording it if not: an
// answer is admitted on its statement's second sighting.
func (c *answerCache) sighted(fp uint64) bool {
	slot := &c.seen[fp%doorkeeperSlots]
	c.mu.Lock()
	defer c.mu.Unlock()
	if *slot == fp {
		return true
	}
	*slot = fp
	return false
}

// put admits e, evicting entries in admission order until the cache is within
// maxAnswerCacheBytes; one hit since eviction last passed it buys an entry a
// second chance at the back (the clock algorithm). An entry larger than the
// bound is not admitted.
func (c *answerCache) put(e *cachedAnswer) {
	size := e.size()
	if size > maxAnswerCacheBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[e.fp] != nil {
		return // a concurrent miss admitted it first
	}
	for c.bytes+size > maxAnswerCacheBytes {
		old := c.order[0]
		c.order[0] = nil
		c.order = c.order[1:]
		if old.referenced { // a second chance, at the back
			old.referenced = false
			c.order = append(c.order, old)
			continue
		}
		delete(c.entries, old.fp)
		c.bytes -= old.size()
	}
	c.entries[e.fp] = e
	c.order = append(c.order, e)
	c.bytes += size
}

// AnswerCacheStats is /stats' view of the answer cache: the live
// generation's entries and their charged bytes, and the hits and misses of
// every generation since the server started.
type AnswerCacheStats struct {
	Entries int   `json:"entries"`
	Bytes   int   `json:"bytes"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
}

func (c *answerCache) stats() (entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.bytes
}

// size is what e is charged against maxAnswerCacheBytes.
func (e *cachedAnswer) size() int {
	n := answerEntryOverhead + len(e.head) + len(e.sql) + len(e.canonical) + len(e.shape)
	if e.agg != nil {
		n += len(e.agg.Rows) * (int(unsafe.Sizeof(table.Row{})) + len(e.agg.Schema)*int(unsafe.Sizeof(table.Value{})))
	}
	return n
}
