package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"asqprl/internal/core"
	"asqprl/internal/engine"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// family names the template a statement came from; per-family counts and
// engine timings are reported under these names.
type family uint8

const (
	famHit family = iota // core.GenerateWorkload, the training distribution
	famScan
	famJoin2
	famJoin3
	famAgg
	famWide
	numFamilies
)

var familyNames = [numFamilies]string{"hit", "scan", "join2", "join3", "agg", "wide"}

// stmt is one distinct statement text of a run. The oracle fields are filled
// by oracle.fill, before the run for the hot set and after it for covered
// stream positions.
type stmt struct {
	sql     string
	body    []byte // the POST /query request body, encoded once
	fam     family
	covered bool        // the oracle checks every response to this statement
	sent    atomic.Bool // for loadgen.repeat_share

	parsed  *sqlparse.Select
	spj     bool
	full    int // |q(T)|
	approx  int // |q(S)|
	columns []string
	filled  bool
}

func newStmt(sql string, fam family, covered bool) *stmt {
	body, err := json.Marshal(map[string]string{"sql": sql})
	if err != nil {
		panic(err) // a string always marshals
	}
	return &stmt{sql: sql, body: body, fam: fam, covered: covered}
}

// mix derives an independent generator seed from the run seed and a salt
// (splitmix64 finalizer), so no stream shares the training workload's seed.
func mix(seed int64, salt ...int64) int64 {
	z := uint64(seed)
	for _, s := range salt {
		z += uint64(s)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// pool is a never-repeating sequence of statements, generated in chunks on
// demand and deduplicated across chunks. Every coverEvery-th item is
// oracle-covered.
type pool struct {
	mu         sync.Mutex
	items      []*stmt
	seen       map[string]struct{}
	chunk      int64
	coverEvery int
	gen        func(chunk int64) ([]string, []family, error)
}

func newPool(coverEvery int, gen func(chunk int64) ([]string, []family, error)) *pool {
	return &pool{seen: map[string]struct{}{}, coverEvery: coverEvery, gen: gen}
}

// at returns the i-th statement, generating more when the run outpaces what
// was prepared.
func (p *pool) at(i int) (*stmt, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i >= len(p.items) {
		sqls, fams, err := p.gen(p.chunk)
		if err != nil {
			return nil, err
		}
		p.chunk++
		before := len(p.items)
		for j, sql := range sqls {
			if _, dup := p.seen[sql]; dup {
				continue
			}
			p.seen[sql] = struct{}{}
			p.items = append(p.items, newStmt(sql, fams[j], len(p.items)%p.coverEvery == 0))
		}
		if len(p.items) == before && p.chunk > 1000 {
			return nil, fmt.Errorf("statement generator exhausted after %d distinct statements", before)
		}
	}
	return p.items[i], nil
}

// prepare generates at least n statements ahead of the timed phases.
func (p *pool) prepare(n int) error {
	_, err := p.at(n - 1)
	return err
}

const poolChunk = 8192

// pageLimit is appended to every statement of the training distribution: an
// exploratory client shows one frame of F tuples and pages, it does not pull
// 40 000-row answers over the wire. LIMIT does not enter the estimator's
// embedding, so routing is what it would be without it. Without the limit a
// fifth of the stream (the part the estimator sends to the full database)
// returns 10^4-10^5 rows, the run spends nine tenths of its time encoding
// them, and 10 s yields under 1 000 samples.
var pageLimit = fmt.Sprintf(" LIMIT %d", frameF)

// hitPool streams statements from the generator the training workload came
// from, under seeds the training never saw: unseen constants, same
// predicate distribution. The stream asks for single-table statements only
// (the generator's smallest JoinProb; 0 would mean its default). The training
// workload has the default third of joins, but an in-distribution join that
// the estimator sends to the full database materialises 40 000-100 000 joined
// rows and takes 150-600 ms against 0.6 ms on the approximation rung: at any
// share above a percent those few statements own the run's time, which draws
// of them a 10 s run happens to get decides every number, and explore_hit
// would measure the same join kernel explore_miss already does.
func hitPool(db *table.Database, seed, salt int64) *pool {
	return newPool(oracleEvery, func(chunk int64) ([]string, []family, error) {
		w, err := core.GenerateWorkload(db, core.GenOptions{N: poolChunk, AggregateProb: aggProb, JoinProb: 1e-9, Seed: mix(seed, salt, chunk)})
		if err != nil {
			return nil, nil, err
		}
		sqls := w.SQLs()
		for i := range sqls {
			sqls[i] += pageLimit
		}
		return sqls, make([]family, len(sqls)), nil
	})
}

var (
	infoTypes = []string{"budget", "gross", "runtime", "country", "language"}
	roles     = []string{"actor", "actress", "director", "producer", "writer", "composer", "editor"}
	genres    = []string{"drama", "comedy", "action", "thriller", "documentary", "horror", "romance", "scifi", "animation", "western"}
)

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// missPool streams bench-owned templates the training generator cannot emit:
// ranges over id columns, three-way joins, joins with a predicate at each
// end, join + GROUP BY. Constants are drawn per statement so that no text
// repeats, and selectivity is tuned so answers stay within a few hundred rows:
// the engine's scan, join and aggregate work dominates, not row encoding.
//
// The shapes are the ones the trained estimator sends to the full database
// (predicted score 0.17-0.46 over 150 random instances each, threshold 0.5).
// Shapes it trusts the approximation set with although the set answers them
// with zero rows - LIKE prefixes, id ranges on cast_info and name, joins
// through name - were tried first and cannot exercise the full rung; the
// engine probes of the traced run still time them.
func missPool(db *table.Database, seed int64) *pool {
	nTitle := db.Table("title").NumRows()
	nName := db.Table("name").NumRows()
	return newPool(oracleEvery, func(chunk int64) ([]string, []family, error) {
		rng := rand.New(rand.NewSource(mix(seed, 2, chunk)))
		year := func() int { return 1930 + rng.Intn(95) }
		// Popular (low) title ids own most cast and info rows; ranges start
		// past them so a window stays a few hundred rows.
		titleLo := func() int { return nTitle/80 + rng.Intn(nTitle-nTitle/80) }
		sqls := make([]string, 0, poolChunk)
		fams := make([]family, 0, poolChunk)
		for len(sqls) < poolChunk {
			var sql string
			var fam family
			switch u := rng.Float64(); {
			case u < 0.25:
				fam = famScan
				lo := titleLo()
				sql = fmt.Sprintf("SELECT * FROM movie_info WHERE title_id BETWEEN %d AND %d AND id >= %d", lo, lo+40+rng.Intn(160), rng.Intn(1000))
			case u < 0.55:
				fam = famJoin2
				switch rng.Intn(3) {
				case 0:
					sql = fmt.Sprintf("SELECT * FROM movie_info JOIN title ON movie_info.title_id = title.id WHERE title.production_year = %d AND movie_info.info_type = '%s' AND movie_info.value > %d",
						year(), pick(rng, infoTypes), rng.Intn(100))
				case 1:
					sql = fmt.Sprintf("SELECT * FROM cast_info JOIN title ON cast_info.title_id = title.id WHERE title.production_year = %d AND cast_info.position = %d", year(), 1+rng.Intn(30))
				default:
					lo := titleLo()
					sql = fmt.Sprintf("SELECT * FROM cast_info JOIN title ON cast_info.title_id = title.id WHERE title.id BETWEEN %d AND %d AND cast_info.position <= %d", lo, lo+50+rng.Intn(250), 3+rng.Intn(17))
				}
			case u < 0.75:
				fam = famJoin3
				if rng.Intn(2) == 0 {
					lo := titleLo()
					sql = fmt.Sprintf("SELECT * FROM movie_info JOIN title ON movie_info.title_id = title.id JOIN cast_info ON cast_info.title_id = title.id WHERE title.id BETWEEN %d AND %d AND cast_info.position <= %d",
						lo, lo+50+rng.Intn(100), 3+rng.Intn(17))
				} else {
					sql = fmt.Sprintf("SELECT * FROM cast_info JOIN title ON cast_info.title_id = title.id JOIN movie_info ON movie_info.title_id = title.id WHERE title.production_year = %d AND title.genre = '%s' AND cast_info.role = '%s' AND movie_info.info_type = '%s'",
						year(), pick(rng, genres), pick(rng, roles), pick(rng, infoTypes))
				}
			default:
				fam = famAgg
				switch rng.Intn(3) {
				case 0:
					lo := rng.Intn(nTitle)
					sql = fmt.Sprintf("SELECT title.genre, COUNT(*) FROM movie_info JOIN title ON movie_info.title_id = title.id WHERE movie_info.title_id BETWEEN %d AND %d AND title.production_year >= %d GROUP BY title.genre",
						lo, lo+200+rng.Intn(2000), 1930+rng.Intn(90))
				case 1:
					sql = fmt.Sprintf("SELECT cast_info.role, AVG(cast_info.position) FROM cast_info JOIN title ON cast_info.title_id = title.id WHERE title.production_year = %d AND title.rating >= %.1f AND cast_info.name_id >= %d GROUP BY cast_info.role",
						year(), 4+rng.Float64()*5, rng.Intn(nName/4))
				default:
					sql = fmt.Sprintf("SELECT movie_info.info_type, AVG(movie_info.value) FROM movie_info JOIN title ON movie_info.title_id = title.id WHERE title.production_year BETWEEN %d AND 2024 AND title.kind = 'movie' AND title.id >= %d GROUP BY movie_info.info_type",
						1930+rng.Intn(70), rng.Intn(nTitle/2))
				}
			}
			sqls = append(sqls, sql)
			fams = append(fams, fam)
		}
		return sqls, fams, nil
	})
}

// wideSet enumerates the wide statements: joins of the two big tables with
// title, in the shapes the estimator sends to the full database, kept when the
// true answer has 5 000 to 25 000 joined rows (scaled down with the corpus).
// All are oracle-covered: there are only dozens.
func wideSet(ctx context.Context, db *table.Database, seed int64) ([]*stmt, error) {
	var cands []string
	for _, it := range infoTypes {
		for y := 1990; y <= 2020; y += 3 {
			cands = append(cands, fmt.Sprintf("SELECT * FROM movie_info JOIN title ON movie_info.title_id = title.id WHERE title.production_year >= %d AND movie_info.info_type = '%s' AND movie_info.value >= 0", y, it))
		}
	}
	for y := 2005; y <= 2024; y++ {
		for _, p := range []int{10, 20, 30} {
			cands = append(cands, fmt.Sprintf("SELECT * FROM cast_info JOIN title ON cast_info.title_id = title.id WHERE title.production_year = %d AND cast_info.position <= %d", y, p))
		}
	}
	total := db.TotalRows()
	lo, hi := total*5000/214000, total*25000/214000
	var out []*stmt
	for _, sql := range cands {
		parsed, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("wide template %q: %w", sql, err)
		}
		n, err := engine.CountContext(ctx, db, parsed, engine.Options{})
		if err != nil {
			return nil, fmt.Errorf("wide template %q: %w", sql, err)
		}
		if n >= lo && n <= hi {
			out = append(out, newStmt(sql, famWide, true))
		}
	}
	if len(out) < 8 {
		return nil, fmt.Errorf("only %d wide statements in the %d-%d row band", len(out), lo, hi)
	}
	rand.New(rand.NewSource(mix(seed, 3))).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// sources holds what a run's connections draw from.
type sources struct {
	// hot is the catalogue of popular statements, in popularity order. It is
	// a constant of the corpus, the same for every seed: which statement
	// holds rank 1 decides a tenth of all requests, and letting the seed pick
	// it would make two seeds two different workloads.
	hot   []*stmt
	fresh *pool // never-sent statements of the training distribution, by seed
	miss  *pool
	wide  []*stmt
}

// mixShares is the traffic mix of a workload: the rest after miss and wide is
// hit traffic (half hot-set repeats, half fresh).
type mixShares struct{ miss, wide float64 }

var mixes = map[string]mixShares{
	"explore_hit":    {0, 0},
	"explore_miss":   {1, 0},
	"durable_mix":    {0.2, 0.02},
	"train_pipeline": {0, 0},
}

func newSources(ctx context.Context, db *table.Database, seed int64, m mixShares) (*sources, error) {
	s := &sources{}
	if m.miss < 1 {
		catalogue := hitPool(db, corpusSeed, 5)
		if err := catalogue.prepare(hotSetSize); err != nil {
			return nil, err
		}
		s.hot = catalogue.items[:hotSetSize]
		s.fresh = hitPool(db, seed, 1)
		for _, st := range s.hot {
			st.covered = true
			s.fresh.seen[st.sql] = struct{}{} // a refinement is never a hot statement
		}
	}
	if m.miss > 0 {
		s.miss = missPool(db, seed)
	}
	if m.wide > 0 {
		var err error
		if s.wide, err = wideSet(ctx, db, seed); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// connStream is the deterministic request sequence of one connection: the
// same (workload, seed, connection) always yields the same statements in the
// same order. Connection c of n takes pool positions c, c+n, c+2n, ...
type connStream struct {
	src       *sources
	mix       mixShares
	rng       *rand.Rand
	zipf      *rand.Zipf
	step      int
	freshNext int
	missNext  int
	sent      int
	repeats   int
}

func newConnStream(src *sources, m mixShares, seed int64, conn, nconn int) *connStream {
	rng := rand.New(rand.NewSource(mix(seed, 4, int64(conn))))
	return &connStream{
		src: src, mix: m, rng: rng,
		zipf:      rand.NewZipf(rng, zipfS, 1, hotSetSize-1),
		step:      nconn,
		freshNext: conn,
		missNext:  conn,
	}
}

func (c *connStream) next() (*stmt, error) {
	var st *stmt
	var err error
	switch u := c.rng.Float64(); {
	case u < c.mix.miss:
		st, err = c.src.miss.at(c.missNext)
		c.missNext += c.step
	case u < c.mix.miss+c.mix.wide:
		st = c.src.wide[c.rng.Intn(len(c.src.wide))]
	case c.rng.Intn(2) == 0:
		// An analyst re-running or paging one of the session's queries.
		st = c.src.hot[c.zipf.Uint64()]
	default:
		// A refinement: the next statement nobody has sent yet.
		st, err = c.src.fresh.at(c.freshNext)
		c.freshNext += c.step
	}
	if err != nil {
		return nil, err
	}
	c.sent++
	if st.sent.Swap(true) {
		c.repeats++
	}
	return st, nil
}
