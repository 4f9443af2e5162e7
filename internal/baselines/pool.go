package baselines

import (
	"math/rand"
	"strings"

	"asqprl/internal/cluster"
	"asqprl/internal/embed"
	"asqprl/internal/sample"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// poolRow is a row drawn into the working pool of a data-driven baseline.
type poolRow struct {
	id  table.RowID
	row table.Row
	tab *table.Table
}

// buildPool draws up to size rows from db, proportionally across tables.
func buildPool(db *table.Database, size int, rng *rand.Rand) []poolRow {
	total := db.TotalRows()
	if total == 0 {
		return nil
	}
	var pool []poolRow
	for _, t := range db.Tables() {
		if t.NumRows() == 0 {
			continue
		}
		quota := int(float64(size) * float64(t.NumRows()) / float64(total))
		if quota < 1 {
			quota = 1
		}
		for _, i := range sample.Uniform(t.NumRows(), quota, rng) {
			pool = append(pool, poolRow{
				id:  table.RowID{Table: strings.ToLower(t.Name), Row: i},
				row: t.Row(i),
				tab: t,
			})
		}
	}
	return pool
}

// QRD implements query result diversification via cluster medoids (after Liu
// & Jagadish): cluster a pool of rows and select medoids plus proportional
// members per cluster, maximizing representativeness and diversity.
type QRD struct{}

// Name implements Builder.
func (QRD) Name() string { return "QRD" }

// Build implements Builder.
func (QRD) Build(db *table.Database, _ workload.Workload, k int, opts Options) (*table.Subset, error) {
	opts = opts.normalize()
	rng := rand.New(rand.NewSource(opts.Seed))
	pool := buildPool(db, opts.PoolSize, rng)
	s := table.NewSubset()
	if len(pool) == 0 || k <= 0 {
		return s, nil
	}
	emb := embed.Embedder{Dim: 32}
	vecs := make([][]float64, len(pool))
	for i, p := range pool {
		vecs[i] = emb.Row(p.id.Table, p.tab.Schema, p.row)
	}
	numClusters := 64
	if numClusters > k {
		numClusters = k
	}
	if numClusters > len(pool) {
		numClusters = len(pool)
	}
	res := cluster.KMeans(vecs, numClusters, 12, rng)
	// Medoids first (one per cluster), then proportional round-robin.
	members := make([][]int, numClusters)
	for i, c := range res.Assignments {
		members[c] = append(members[c], i)
	}
	for ci := range members {
		// Shuffle for unbiased member picks.
		rng.Shuffle(len(members[ci]), func(a, b int) {
			members[ci][a], members[ci][b] = members[ci][b], members[ci][a]
		})
	}
	for round := 0; s.Size() < k; round++ {
		progressed := false
		for ci := range members {
			if s.Size() >= k {
				break
			}
			if round < len(members[ci]) {
				s.Add(pool[members[ci][round]].id)
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return s, nil
}

// Skyline implements SKY: layered skyline computation over the numeric
// columns (maximizing) with categorical columns compared by frequency, as in
// Section 6.1's extension of Papadias et al. Layers are peeled until the
// budget is filled, with each table receiving a quota proportional to its
// size.
type Skyline struct{}

// Name implements Builder.
func (Skyline) Name() string { return "SKY" }

// Build implements Builder.
func (Skyline) Build(db *table.Database, _ workload.Workload, k int, opts Options) (*table.Subset, error) {
	opts = opts.normalize()
	rng := rand.New(rand.NewSource(opts.Seed))
	total := db.TotalRows()
	s := table.NewSubset()
	if total == 0 || k <= 0 {
		return s, nil
	}
	for _, t := range db.Tables() {
		if t.NumRows() == 0 {
			continue
		}
		quota := int(float64(k) * float64(t.NumRows()) / float64(total))
		if quota < 1 {
			quota = 1
		}
		poolSize := opts.PoolSize / len(db.Tables())
		idx := sample.Uniform(t.NumRows(), poolSize, rng)
		picked := skylineLayers(t, idx, quota)
		for _, i := range picked {
			if s.Size() >= k {
				break
			}
			s.Add(table.RowID{Table: strings.ToLower(t.Name), Row: i})
		}
	}
	return s, nil
}

// skylineLayers returns up to quota row indices by repeatedly peeling the
// dominance skyline of the remaining pool. Scores: numeric columns maximize
// their value, categorical columns maximize value frequency.
func skylineLayers(t *table.Table, pool []int, quota int) []int {
	// Build per-row score vectors over at most 4 dimensions.
	var dims []int
	for ci, col := range t.Schema {
		if len(dims) >= 4 {
			break
		}
		if strings.EqualFold(col.Name, "id") || strings.HasSuffix(strings.ToLower(col.Name), "_id") {
			continue
		}
		switch col.Kind {
		case table.KindInt, table.KindFloat, table.KindString:
			dims = append(dims, ci)
		}
	}
	if len(dims) == 0 {
		if quota > len(pool) {
			quota = len(pool)
		}
		return pool[:quota]
	}
	// Frequency tables for categorical dims.
	freq := make([]map[string]int, len(dims))
	for di, ci := range dims {
		if t.Schema[ci].Kind == table.KindString {
			f := map[string]int{}
			for _, ri := range pool {
				f[t.Cell(ri, ci).Str]++
			}
			freq[di] = f
		}
	}
	scores := make([][]float64, len(pool))
	for pi, ri := range pool {
		v := make([]float64, len(dims))
		for di, ci := range dims {
			cell := t.Cell(ri, ci)
			if freq[di] != nil {
				v[di] = float64(freq[di][cell.Str])
			} else {
				v[di] = cell.AsFloat()
			}
		}
		scores[pi] = v
	}

	remaining := make([]int, len(pool))
	for i := range remaining {
		remaining[i] = i
	}
	var out []int
	for len(out) < quota && len(remaining) > 0 {
		layer := skylineOf(scores, remaining)
		if len(layer) == 0 {
			break
		}
		inLayer := map[int]bool{}
		for _, pi := range layer {
			inLayer[pi] = true
			out = append(out, pool[pi])
			if len(out) >= quota {
				break
			}
		}
		next := remaining[:0]
		for _, pi := range remaining {
			if !inLayer[pi] {
				next = append(next, pi)
			}
		}
		remaining = next
	}
	return out
}

// skylineOf returns the indices in candidates not dominated by any other.
func skylineOf(scores [][]float64, candidates []int) []int {
	var out []int
	for _, a := range candidates {
		dominated := false
		for _, b := range candidates {
			if a == b {
				continue
			}
			if dominates(scores[b], scores[a]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	return out
}

func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			strict = true
		}
	}
	return strict
}

// QuickR implements QUIK, a QuickR-style sampler: tables referenced by the
// workload receive budget proportional to their reference frequency, and
// rows within a table are stratified on the lowest-cardinality categorical
// column so rare strata stay represented — the "right samples from a
// catalog" idea at miniature scale.
type QuickR struct{}

// Name implements Builder.
func (QuickR) Name() string { return "QUIK" }

// Build implements Builder.
func (QuickR) Build(db *table.Database, train workload.Workload, k int, opts Options) (*table.Subset, error) {
	opts = opts.normalize()
	rng := rand.New(rand.NewSource(opts.Seed))
	// Table reference counts from the workload.
	refs := map[string]int{}
	for _, q := range train {
		for _, f := range q.Stmt.From {
			refs[strings.ToLower(f.Table)]++
		}
		for _, j := range q.Stmt.Joins {
			refs[strings.ToLower(j.Ref.Table)]++
		}
	}
	totalRefs := 0
	for _, c := range refs {
		totalRefs += c
	}
	s := table.NewSubset()
	for _, t := range db.Tables() {
		if t.NumRows() == 0 {
			continue
		}
		name := strings.ToLower(t.Name)
		var quota int
		if totalRefs > 0 {
			quota = int(float64(k) * float64(refs[name]) / float64(totalRefs))
		} else {
			quota = k / len(db.Tables())
		}
		if quota <= 0 {
			continue
		}
		strat := strataColumn(t)
		var idx []int
		if strat < 0 {
			idx = sample.Uniform(t.NumRows(), quota, rng)
		} else {
			strata := make([]int, t.NumRows())
			seen := map[string]int{}
			for i := range strata {
				key := t.Cell(i, strat).Key()
				id, ok := seen[key]
				if !ok {
					id = len(seen)
					seen[key] = id
				}
				strata[i] = id
			}
			idx = sample.Stratified(strata, quota, rng)
		}
		for _, i := range idx {
			if s.Size() >= k {
				break
			}
			s.Add(table.RowID{Table: name, Row: i})
		}
	}
	return s, nil
}

// strataColumn picks the lowest-cardinality string column with at least two
// values, or -1.
func strataColumn(t *table.Table) int {
	best, bestCard := -1, 1<<30
	for ci, col := range t.Schema {
		if col.Kind != table.KindString {
			continue
		}
		card := map[string]bool{}
		for r := 0; r < t.NumRows(); r++ {
			card[t.Cell(r, ci).Str] = true
			if len(card) > 256 {
				break
			}
		}
		if len(card) >= 2 && len(card) <= 256 && len(card) < bestCard {
			best, bestCard = ci, len(card)
		}
	}
	return best
}
