package engine

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"asqprl/internal/obs"
	"asqprl/internal/table"
)

// The join probe (DESIGN §13 "Join phase"). A step probes the build relation's
// cached table.JoinIndex with the batch guardInterval rows at a time, each
// chunk in three passes over pooled scratch: a typed loop per key pair reads
// the chunk's keys straight from the probe column's vector; the index finds
// every key's run in one inline loop (JoinIndex.Runs); and the runs are emitted
// as two vectors — batch row, build row — from which the step's output columns
// are gathered, one loop each. Nothing is called or boxed per row, the guard
// and the intermediate budget are settled per chunk, and a step runs on the
// goroutine that called it (DESIGN §13 "Operators are serial").

// keyCol reads one key column's join keys a chunk at a time: a kind switch per
// call, a typed loop inside (table.ColumnData.JoinKeyer's keys, row for row).
type keyCol struct {
	col  *table.ColumnData
	xlat *dictXlat // probe side of a string pair over two dictionaries
}

// keys stores the key of each of rows as (tags[i], bits[i]); a NULL cell keys
// as TagNull and a string the build dictionary lacks as TagMiss, which no index
// holds and no build row keys as.
func (k keyCol) keys(rows []int32, tags []uint8, bits []uint64) {
	c := k.col
	tags, bits = tags[:len(rows)], bits[:len(rows)]
	switch c.Kind {
	case table.KindString:
		codes := c.Codes
		if x := k.xlat; x != nil {
			for i, r := range rows {
				code, tag := codes[r], table.TagStr
				if code < 0 {
					tag, code = table.TagNull, 0
				} else if code = x.code(code); code < 0 {
					tag, code = table.TagMiss, 0
				}
				tags[i], bits[i] = tag, uint64(code)
			}
			return
		}
		for i, r := range rows {
			code, tag := codes[r], table.TagStr
			if code < 0 {
				tag, code = table.TagNull, 0
			}
			tags[i], bits[i] = tag, uint64(code)
		}
		return // Codes mark their own NULLs
	case table.KindInt:
		vals := c.Ints
		for i, r := range rows {
			tags[i], bits[i] = table.TagNum, uint64(vals[r])
		}
	case table.KindFloat:
		vals := c.Floats
		for i, r := range rows {
			key := table.FloatJoinKey(vals[r])
			tags[i], bits[i] = key.Tag, key.Bits
		}
	case table.KindBool:
		vals := c.Bools
		for i, r := range rows {
			var b uint64
			if vals[r] {
				b = 1
			}
			tags[i], bits[i] = table.TagBool, b
		}
	}
	if nulls := c.Nulls; nulls != nil {
		for i, r := range rows {
			if nulls.Get(int(r)) {
				tags[i] = table.TagNull
			}
		}
	}
}

// dictXlat translates dictionary from's codes into dictionary to's, each the
// first time it is asked for, not every string of the column per query. memo
// holds code+2 (0: not yet translated, 1: absent from to).
type dictXlat struct {
	from, to *table.Dict
	memo     []int32
}

func (x *dictXlat) code(c int32) int32 {
	if v := x.memo[c]; v != 0 {
		return v - 2
	}
	return x.translate(c)
}

func (x *dictXlat) translate(c int32) int32 {
	v := int32(1)
	if t, ok := x.to.Code(x.from.Strs[c]); ok {
		v = t + 2
	}
	x.memo[c] = v
	return v - 2
}

// probeKeys is the key reader over column pc for lookups among keys of column
// bc: between two dictionaries, pc's codes are translated into
// bc's, and a string bc does not hold keys as TagMiss.
func probeKeys(pc, bc *table.ColumnData) keyCol {
	k := keyCol{col: pc}
	if pc.Kind == table.KindString && bc.Kind == table.KindString && pc.Dict != bc.Dict {
		k.xlat = &dictXlat{from: pc.Dict, to: bc.Dict, memo: make([]int32, pc.Dict.Len())}
	}
	return k
}

// probeKeyer is probeKeys one row at a time, for the scan phase's count of the
// rows a partner's keys reach.
func probeKeyer(pc, bc *table.ColumnData) func(int32) (table.JoinKey, bool) {
	if x := probeKeys(pc, bc).xlat; x != nil {
		return pc.JoinKeyer(x.code)
	}
	return pc.JoinKeyer(nil)
}

// Join-index builds: the scan phase or a join step records one when its lookup
// is the one that built a column's index (once per column per columnar view).
const (
	metricJoinIndexBuilds       = "engine/join/index_builds"
	metricJoinIndexBuildSeconds = "engine/join/index_build/seconds"
)

var (
	joinIndexBuilds       = obs.Default().Counter(metricJoinIndexBuilds)
	joinIndexBuildSeconds = obs.Default().Histogram(metricJoinIndexBuildSeconds)
)

// joinIndexOf is cs.JoinIndex(col), recording the build when this call did it.
func joinIndexOf(cs *table.ColumnSet, col int) *table.JoinIndex {
	start := time.Now()
	ix, built := cs.JoinIndex(col)
	if built {
		joinIndexBuilds.Inc()
		joinIndexBuildSeconds.ObserveDuration(time.Since(start))
	}
	return ix
}

// indexedPair moves to pairs[0] the key pair whose build column's cached index
// holds the most distinct keys — the one the data makes most selective, not
// the one written first — and returns that index.
func indexedPair(b *binder, rel int, pairs []joinKeyPair) (ix *table.JoinIndex) {
	cs := b.tables[rel].Columns()
	for pi, kp := range pairs {
		if cand := joinIndexOf(cs, kp.relCol.col); ix == nil || cand.Distinct() > ix.Distinct() {
			ix = cand
			pairs[0], pairs[pi] = pairs[pi], pairs[0]
		}
	}
	return ix
}

// probeKind names how a step's runs are emitted: "unique keys" when the index
// holds one row per key (a primary key's), "runs" otherwise.
func probeKind(ix *table.JoinIndex) string {
	if ix.Unique() {
		return "unique keys"
	}
	return "runs"
}

// matchPair is one key pair of a step: the batch column holding the probe
// relation's row ids, and the key readers of the two sides.
type matchPair struct {
	rows         []int32
	probe, build keyCol
}

// joinMatcher probes the build relation's cached join index (table.JoinIndex)
// with a batch, so a step builds nothing proportional to the relation. A cached
// index covers one column of all rows, so its runs can hold rows to pass over:
// non-candidates, rows differing on another key pair. Once scanning those has
// cost what hashing the candidates costs (subCost scanned rows per candidate),
// the matcher hashes them on every key pair, once (sub), and probes that
// instead: a step's work stays within probe rows + candidates + matches, like
// a per-query hash join's, whatever the key cardinalities and the order of the
// ON conjuncts.
type joinMatcher struct {
	ix    *table.JoinIndex // cached, of pairs[0]'s build column
	cand  []int32
	mark  table.Bitmap // cand as a set; nil when the relation is unfiltered
	pairs []matchPair
	emits bool // the step's output has columns: matches are kept, not just counted

	g       *guard
	wasted  int64            // index rows scanned past, in guardInterval batches
	skipped int              // scanned past since the last guard poll, not yet in wasted
	sub     *table.JoinIndex // the candidates' own index on every pair, once built
}

const subCost = 8

func newJoinMatcher(b *binder, cur *joinedBatch, cand []int32, rel int, pairs []joinKeyPair, emits bool, g *guard) (*joinMatcher, error) {
	relCS := b.tables[rel].Columns()
	m := &joinMatcher{ix: indexedPair(b, rel, pairs), cand: cand, emits: emits, g: g, pairs: make([]matchPair, len(pairs))}
	for pi, kp := range pairs {
		bc := &relCS.Cols[kp.relCol.col]
		m.pairs[pi] = matchPair{rows: cur.cols[kp.boundBind.rel], probe: probeKeys(b.col(kp.boundBind), bc), build: keyCol{col: bc}}
	}
	// One guard tick per build-side candidate, as when the step hashed them.
	if err := tickChunks(g, len(cand)); err != nil {
		return nil, err
	}
	if len(cand) < relCS.NumRows {
		m.mark = table.NewBitmap(relCS.NumRows)
		for _, ri := range cand {
			m.mark.Set(int(ri))
		}
	}
	return m, nil
}

// foldKey folds a further key pair's key k into h: sub's key is the key itself
// for one pair and a TagHash over all of them for several.
func foldKey(h, k table.JoinKey) table.JoinKey {
	return table.JoinKey{Tag: table.TagHash, Bits: (h.Bits+uint64(h.Tag))*0x9E3779B97F4A7C15 ^ k.Bits ^ uint64(k.Tag)<<57}
}

func (m *joinMatcher) buildSub() {
	keyers := make([]func(int32) (table.JoinKey, bool), len(m.pairs))
	for pi := range m.pairs {
		keyers[pi] = m.pairs[pi].build.col.JoinKeyer(nil)
	}
	m.sub = table.NewJoinIndex(func(ri int32) (table.JoinKey, bool) {
		h, ok := keyers[0](ri)
		for _, keyer := range keyers[1:] {
			k, kok := keyer(ri)
			h, ok = foldKey(h, k), ok && kok
		}
		return h, ok
	}, m.cand)
}

// probeScratch is a step's chunk vectors: per key slot the chunk's keys
// (slot p < pairs: pair p's probe keys; then the keys folded for sub, then the
// build keys of rows under verification), the runs found for them, and the
// pairs emitted so far — batch row idx[j] joins build row row[j], j < n.
type probeScratch struct {
	tags   []uint8
	bits   []uint64
	lo, hi [guardInterval]int32
	idx    []int32
	row    []int32
	n      int
}

// probeFlushRows is how many emitted pairs a probe collects before it gathers
// them into the output columns: a step that emits fewer allocates each
// column once, at its size, and a longer one at the size its hit rate so far
// predicts. A scratch whose vectors grew past probeRetainRows (one long run can
// do that) is not pooled again.
const (
	probeFlushRows  = 1 << 15
	probeRetainRows = 4 * probeFlushRows
)

var probeScratchPool = sync.Pool{New: func() any { return new(probeScratch) }}

func getProbeScratch(pairs int) *probeScratch {
	sc := probeScratchPool.Get().(*probeScratch)
	if need := (pairs + 2) * guardInterval; len(sc.tags) < need {
		sc.tags, sc.bits = make([]uint8, need), make([]uint64, need)
	}
	sc.n = 0
	return sc
}

func putProbeScratch(sc *probeScratch) {
	if len(sc.idx) > probeRetainRows {
		sc.idx, sc.row = nil, nil
	}
	probeScratchPool.Put(sc)
}

// slot is key slot s, cut to n keys.
func (sc *probeScratch) slot(s, n int) ([]uint8, []uint64) {
	return sc.tags[s*guardInterval:][:n], sc.bits[s*guardInterval:][:n]
}

// reserve makes room for n pairs in all, keeping the first used.
func (sc *probeScratch) reserve(used, n int) {
	if n > len(sc.idx) {
		size := max(n, 2*len(sc.idx), guardInterval)
		sc.idx = append(make([]int32, 0, size), sc.idx[:used]...)[:size]
		sc.row = append(make([]int32, 0, size), sc.row[:used]...)[:size]
	}
}

// gather appends the emitted pairs to cols — cur's emitBound columns read
// through the pairs' batch rows, then (a column more) the build rows when the
// step's relation is needed — and empties the scratch. A column that has to
// grow grows to hold more further pairs, when the caller expects them.
func (sc *probeScratch) gather(cur *joinedBatch, emitBound []int, cols [][]int32, more int) {
	idx := sc.idx[:sc.n]
	for ci := range cols {
		at := len(cols[ci])
		if at+len(idx) > cap(cols[ci]) {
			cols[ci] = slices.Grow(cols[ci], len(idx)+more)
		}
		out := cols[ci][:at+len(idx)]
		if ci == len(emitBound) {
			copy(out[at:], sc.row[:sc.n])
		} else {
			src := cur.cols[emitBound[ci]]
			for j, i := range idx {
				out[at+j] = src[i]
			}
		}
		cols[ci] = out
	}
	sc.n = 0
}

// matches probes batch rows [lo, hi), one chunk (at most guardInterval rows),
// and returns how many pairs they emit, appended to sc when the step keeps
// them. It stops early once the count passes room, the intermediate budget
// left: a caller that sees n > room has its budget error, and no key's fan-out
// writes more than one run past it. The error is the guard's: rows scanned past
// are polled for here, as emitted ones are ticked by the caller.
func (m *joinMatcher) matches(lo, hi int, sc *probeScratch, room int) (int, error) {
	cnt := hi - lo
	tags, _ := sc.slot(0, cnt)
	for p := range m.pairs {
		kp := &m.pairs[p]
		ptags, pbits := sc.slot(p, cnt)
		kp.probe.keys(kp.rows[lo:hi], ptags, pbits)
		if p > 0 { // a NULL on any pair joins nothing
			for i, t := range ptags {
				if t == table.TagNull {
					tags[i] = table.TagNull
				}
			}
		}
	}
	return m.emit(m.wasted > subCost*int64(len(m.cand)), lo, 0, cnt, sc, room)
}

// emit finds and emits the runs of chunk rows [from, cnt), whose keys pass 1
// left in sc: in the cached index, passing over non-candidates and verifying
// the further pairs, or — sub — in the candidates' own index on every pair.
func (m *joinMatcher) emit(sub bool, lo, from, cnt int, sc *probeScratch, room int) (n int, err error) {
	np := len(m.pairs)
	ix, mark, verify, slot := m.ix, m.mark, 1, 0
	if sub {
		if m.sub == nil {
			m.buildSub()
		}
		ix, mark = m.sub, nil
		if np > 1 { // a hash of all pairs finds the run; every pair is verified
			verify, slot = 0, np
			htags, hbits := sc.slot(np, cnt)
			copy(htags[from:], sc.tags[from:cnt])
			for i := from; i < cnt; i++ {
				h := table.JoinKey{Tag: sc.tags[i], Bits: sc.bits[i]}
				for p := 1; p < np; p++ {
					h = foldKey(h, table.JoinKey{Tag: sc.tags[p*guardInterval+i], Bits: sc.bits[p*guardInterval+i]})
				}
				if hbits[i] = h.Bits; htags[i] != table.TagNull {
					htags[i] = table.TagHash
				}
			}
		}
	}
	tags, bits := sc.slot(slot, cnt)
	ix.Runs(tags[from:], bits[from:], sc.lo[from:cnt], sc.hi[from:cnt])
	rows := ix.Rows()
	if len(rows) == 0 {
		return 0, nil
	}
	w := sc.n
	if !m.emits {
		w = 0
	}
	base := int32(lo)

	switch {
	case !m.emits && mark == nil && verify >= np:
		// Nothing to keep and nothing to pass over: a run counts by its length.
		for i := from; i < cnt; i++ {
			n += int(sc.hi[i] - sc.lo[i])
		}

	case ix.Unique():
		// Every run is one row or none: each probe row writes its pair and the
		// write position moves on only on a hit — no branch on the outcome.
		w0 := w
		sc.reserve(w, w+cnt-from)
		idx, row := sc.idx, sc.row
		if mark == nil {
			for i := from; i < cnt; i++ {
				l := sc.lo[i]
				idx[w], row[w] = base+int32(i), rows[l]
				w += int(sc.hi[i] - l)
			}
		} else {
			for i := from; i < cnt; i++ {
				l := sc.lo[i]
				r := rows[l]
				idx[w], row[w] = base+int32(i), r
				w += int(sc.hi[i]-l) & mark.Bit(int(r))
			}
		}
		for p := verify; p < np; p++ {
			w = m.verify(p, lo, sc, w0, w)
		}
		n = w - w0

	default:
		for i := from; i < cnt && n <= room; i++ {
			l, h := int(sc.lo[i]), int(sc.hi[i])
			if l == h {
				continue
			}
			// A run of a few rows costs what a lookup in sub would: scan it regardless.
			if !sub && h-l > subCost && m.wasted > subCost*int64(len(m.cand)) {
				if m.emits {
					sc.n = w
				}
				rest, err := m.emit(true, lo, i, cnt, sc, room-n)
				return n + rest, err
			}
			if !m.emits {
				w = 0
			}
			w0 := w
			sc.reserve(w, w+h-l)
			if mark == nil {
				w += copy(sc.row[w:], rows[l:h])
			} else {
				row := sc.row
				for _, r := range rows[l:h] {
					row[w] = r
					w += mark.Bit(int(r))
				}
			}
			for j := w0; j < w; j++ {
				sc.idx[j] = base + int32(i)
			}
			for p := verify; p < np; p++ {
				w = m.verify(p, lo, sc, w0, w)
			}
			n += w - w0
			if skip := h - l - (w - w0); skip > subCost {
				if m.skipped += skip; m.skipped >= guardInterval {
					m.wasted += int64(m.skipped)
					m.skipped = 0
					if err := m.g.poll(); err != nil {
						return n, err
					}
				}
			}
		}
	}
	if m.emits {
		sc.n = w
	}
	return n, nil
}

// verify keeps, of the emitted pairs [a, b), those whose build row keys pair p
// as the probe row does, and returns where they end.
func (m *joinMatcher) verify(p, lo int, sc *probeScratch, a, b int) int {
	ptags, pbits := sc.slot(p, guardInterval)
	out := a
	for ; a < b; a += guardInterval {
		e := min(a+guardInterval, b)
		btags, bbits := sc.slot(len(m.pairs)+1, e-a)
		m.pairs[p].build.keys(sc.row[a:e], btags, bbits)
		for j := a; j < e; j++ {
			i := int(sc.idx[j]) - lo
			sc.idx[out], sc.row[out] = sc.idx[j], sc.row[j]
			if btags[j-a] == ptags[i] && bbits[j-a] == pbits[i] {
				out++
			}
		}
	}
	return out
}

func errJoinBudget(limit int) error {
	return fmt.Errorf("%w: join intermediate exceeds limit %d rows", ErrRowBudget, limit)
}

// probeBatch is the step's output: cols (width of them) in emitBound order,
// then rel's.
func probeBatch(cur *joinedBatch, rel int, emitBound []int, cols [][]int32, n int) *joinedBatch {
	out := &joinedBatch{n: n, cols: make([][]int32, len(cur.cols))}
	for ci, c := range cols {
		if c == nil {
			c = []int32{} // bound, and empty
		}
		if ci < len(emitBound) {
			out.cols[emitBound[ci]] = c
		} else {
			out.cols[rel] = c
		}
	}
	return out
}

// probeCol probes the batch chunk by chunk in row order. The guard is ticked
// per chunk for the rows it emitted and the budget settled with it: on a trip,
// for the rows up to and including the one that tripped it, as a loop ticking
// row by row would have.
func probeCol(cur *joinedBatch, rel int, emitBound []int, width int, m *joinMatcher, limit int, g *guard) (*joinedBatch, error) {
	sc := getProbeScratch(len(m.pairs))
	defer putProbeScratch(sc)
	cols := make([][]int32, width)
	count := 0
	for lo := 0; lo < cur.n; lo += guardInterval {
		hi := min(lo+guardInterval, cur.n)
		n, err := m.matches(lo, hi, sc, limit-count)
		if err != nil {
			return nil, err
		}
		over := n > limit-count
		if over {
			n = limit - count + 1
		}
		if err := tickChunks(g, n); err != nil {
			return nil, err
		}
		if over {
			return nil, errJoinBudget(limit)
		}
		if count += n; sc.n >= probeFlushRows {
			sc.gather(cur, emitBound, cols, restAtRate(count, hi, cur.n))
		}
	}
	sc.gather(cur, emitBound, cols, 0)
	return probeBatch(cur, rel, emitBound, cols, count), nil
}
