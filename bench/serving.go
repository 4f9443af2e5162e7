package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/engine"
	"asqprl/internal/table"
)

const (
	setupBoots   = 7   // server boots per end-to-end run; setup_s is their median
	verifyFresh  = 100 // covered stream statements checked by full decode up front
	wantSegments = 5
	auditSample  = "0.1"
)

// serverStats is the part of GET /stats the bench reads.
type serverStats struct {
	SetSize        int `json:"set_size"`
	DriftedQueries int `json:"drifted_queries"`
	Quality        struct {
		Eligible  int64   `json:"eligible"`
		Sampled   int64   `json:"sampled"`
		Completed int64   `json:"completed"`
		Dropped   int64   `json:"dropped"`
		ErrorP95  float64 `json:"error_p95"`
	} `json:"quality"`
	WAL *struct {
		Appended    int64 `json:"appended"`
		ActiveBytes int64 `json:"active_bytes"`
		Segments    int   `json:"segments"`
	} `json:"wal"`
	Recovery *struct {
		FramesReplayed int     `json:"frames_replayed"`
		FramesDropped  int     `json:"frames_dropped"`
		WallMs         float64 `json:"wall_ms"`
		ReplayWallMs   float64 `json:"replay_wall_ms"`
	} `json:"recovery"`
}

func fetchStats(addr string) (serverStats, error) {
	var st serverStats
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// servingInputs is everything a serving run prepares before the child boots.
type servingInputs struct {
	corpus    *corpus
	serverBin string
	db        *table.Database
	sys       *core.System
	oracle    *oracle
	src       *sources
	k         int
	probes    loadProbes
}

func (r *run) prepareServing(ctx context.Context) (*servingInputs, error) {
	scale, k := servingScale, servingK
	if r.quick {
		scale, k = quickScale, trainK
	}
	in := &servingInputs{k: k}
	var err error
	if in.corpus, err = ensureCorpus(r.outDir, scale, servingTrain); err != nil {
		return nil, err
	}
	if in.serverBin, err = ensureServerBin(r.root, r.outDir); err != nil {
		return nil, err
	}
	if err := ensureSnapshot(in.corpus, in.serverBin, k, r.logPath); err != nil {
		return nil, err
	}
	// The bench reads the same CSVs and the same snapshot the child does, so
	// its oracle and the server hold identical data and the identical set.
	if in.db, in.sys, in.probes, err = loadSystem(in.corpus, k); err != nil {
		return nil, err
	}
	in.oracle = &oracle{sys: in.sys}
	if in.src, err = newSources(ctx, in.db, r.seed, mixes[r.spec.Name]); err != nil {
		return nil, err
	}
	return in, nil
}

// childArgs are the only flags the server ever sees: where its data and
// trained snapshot are, and for durable_mix the WAL directory and the audit
// rate. It is never told which workload it serves.
func (r *run) childArgs(in *servingInputs, walDir string) []string {
	args := []string{"-data", in.corpus.dataDir, "-load", in.corpus.snapshotPath(in.k), "-log", "off"}
	if r.spec.Durable {
		args = append(args, "-wal-dir", walDir, "-audit-sample", auditSample)
	}
	return args
}

// verifyList is what the untimed verify pass sends: the head of the hot set,
// every wide statement, and the first covered positions of each stream.
func verifyList(ctx context.Context, in *servingInputs) ([]*stmt, error) {
	var list []*stmt
	list = append(list, in.src.hot[:min(len(in.src.hot), verifyFresh)]...)
	list = append(list, in.src.wide...)
	for _, p := range []*pool{in.src.fresh, in.src.miss} {
		if p == nil {
			continue
		}
		for i, n := 0, 0; n < verifyFresh; i++ {
			st, err := p.at(i)
			if err != nil {
				return nil, err
			}
			if st.covered {
				list = append(list, st)
				n++
			}
		}
	}
	if err := in.oracle.fillAll(ctx, list); err != nil {
		return nil, err
	}
	for _, st := range list {
		res, err := engine.ExecuteWithContext(ctx, in.sys.SetDB(), st.parsed, engine.Options{})
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", st.sql, err)
		}
		st.columns = res.Table.Schema.Names()
	}
	return list, nil
}

func (r *run) serving(ctx context.Context) error {
	in, err := r.prepareServing(ctx)
	if err != nil {
		return err
	}
	verify, err := verifyList(ctx, in)
	if err != nil {
		return err
	}
	// The hot set's oracle is computed before the run; stream positions the
	// run reaches are filled in after the phase.
	if err := in.oracle.fillAll(ctx, in.src.hot); err != nil {
		return err
	}

	// Set-up: exec -> /readyz 200, several times, median reported. All boots
	// but the last are drained at once; the last serves the run.
	boots := setupBoots
	if r.trace {
		boots = 1
	}
	var (
		ch     *child
		walDir string
	)
	cal := startCalibrator()
	defer cal.close()
	setupStart := time.Now()
	for i := 0; i < boots; i++ {
		walDir = filepath.Join(r.runDir, fmt.Sprintf("wal-%d", i))
		ch, err = startChild(in.serverBin, r.childArgs(in, walDir), r.logPath)
		if err != nil {
			return err
		}
		took, err := ch.waitReady(2 * time.Minute)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, took.Seconds())
		if i < boots-1 {
			if err := ch.stop(); err != nil {
				return err
			}
		}
	}
	defer ch.stop()
	setupSpeed := cal.speedBetween(setupStart, time.Now())

	conns := make([]*conn, connections)
	reqs := make([]requester, connections)
	streams := make([]*connStream, connections)
	for i := range conns {
		conns[i] = newConn(ch.addr)
		defer conns[i].close()
		reqs[i] = conns[i]
		streams[i] = newConnStream(in.src, mixes[r.spec.Name], r.seed, i, connections)
	}

	for _, st := range verify {
		if err := verifyOne(conns[0], st); err != nil {
			r.fail("%v", err)
		}
	}
	if len(r.failures) > 0 {
		r.attempted, r.failed = len(verify), len(r.failures)
		return nil
	}
	r.detail["verified"] = len(verify)

	ph, err := r.measure(reqs, streams, ch.pid(), cal)
	if err != nil {
		return err
	}
	var paced []pacedRecord
	if r.trace {
		if paced, err = pacedLoop(reqs, streams, r.spec.PacedRPS, ph.dur); err != nil {
			return err
		}
		if err := r.servingLayers(ctx, in, conns[0], streams[0]); err != nil {
			return err
		}
	}

	stats, err := fetchStats(ch.addr)
	if err != nil {
		return err
	}
	if r.spec.Durable {
		if err := r.crashAndRecover(in, ch, walDir); err != nil {
			return err
		}
	} else if err := ch.stop(); err != nil {
		r.fail("%v", err)
	}

	if err := r.account(ctx, in.oracle, ph, setupSpeed); err != nil {
		return err
	}
	r.attempted += len(paced)
	for _, p := range paced {
		if !p.ok {
			r.failed++
			r.fail("paced request failed")
		}
	}

	if r.trace {
		r.set("loadgen.sent", float64(r.attempted))
		r.set("loadgen.ok", float64(r.attempted-r.failed))
		r.set("loadgen.failed", float64(r.failed))
		pl, lag := make([]float64, len(paced)), make([]float64, len(paced))
		for i, p := range paced {
			pl[i] = float64(p.latency) / float64(time.Millisecond)
			lag[i] = float64(p.lag) / float64(time.Millisecond)
		}
		r.set("loadgen.paced_p50_ms", quantile(pl, 0.5))
		r.set("loadgen.paced_p99_ms", quantile(pl, 0.99))
		r.set("loadgen.lag_p99_ms", quantile(lag, 0.99))
		r.detail["paced_samples"] = len(paced)

		sizes := make([]float64, len(ph.recs))
		for i, rec := range ph.recs {
			sizes[i] = float64(rec.bytes)
		}
		r.set("server.response_bytes_p50", quantile(sizes, 0.5))
		r.set("server.response_bytes_p99", quantile(sizes, 0.99))
		r.set("core.drift.drifted", float64(stats.DriftedQueries))
		r.set("core.set.size", float64(stats.SetSize))
		r.set("core.set.over_budget", float64(max(0, stats.SetSize-in.k)))
		r.set("audit.eligible", float64(stats.Quality.Eligible))
		r.set("audit.sampled", float64(stats.Quality.Sampled))
		r.set("audit.completed", float64(stats.Quality.Completed))
		r.set("audit.dropped", float64(stats.Quality.Dropped))
		r.set("audit.error_p95", stats.Quality.ErrorP95)
		if stats.WAL != nil {
			r.set("wal.appended", float64(stats.WAL.Appended))
		}
		in.probes.report(r)
	}
	return nil
}

// servingLayers takes the per-layer timings of a traced serving run: the
// replay through an in-process handler configured as the child is, the engine
// by template family, and for durable_mix the WAL.
func (r *run) servingLayers(ctx context.Context, in *servingInputs, c *conn, stream *connStream) error {
	hp, err := r.newHandlerProbe(in.sys)
	if err != nil {
		return err
	}
	defer hp.close()
	if err := r.tracedReplay(ctx, replayTarget{sys: in.sys, conn: c, hp: hp}, stream); err != nil {
		return err
	}
	if err := r.engineFamilies(ctx, in.sys); err != nil {
		return err
	}
	if hp.wlog != nil {
		return r.walProbe(hp.wlog)
	}
	return nil
}

// crashAndRecover ends a durable run the hard way: SIGKILL, restart on the
// same WAL directory, and check the recovery report. Nothing acknowledged may
// be reported dropped.
func (r *run) crashAndRecover(in *servingInputs, ch *child, walDir string) error {
	ch.kill()
	re, err := startChild(in.serverBin, r.childArgs(in, walDir), r.logPath)
	if err != nil {
		return err
	}
	defer re.stop()
	took, err := re.waitReady(2 * time.Minute)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	stats, err := fetchStats(re.addr)
	if err != nil {
		return err
	}
	if stats.Recovery == nil {
		r.fail("restart after SIGKILL reports no /stats.recovery")
		return nil
	}
	if stats.Recovery.FramesDropped != 0 {
		r.fail("wal.recovery.frames_dropped = %d after SIGKILL, want 0", stats.Recovery.FramesDropped)
	}
	if stats.Recovery.FramesReplayed == 0 {
		r.fail("restart after SIGKILL replayed no WAL frames")
	}
	r.detail["recovery"] = stats.Recovery
	r.set("wal.recovery.restart_s", took.Seconds())
	r.set("wal.recovery.frames_replayed", float64(stats.Recovery.FramesReplayed))
	r.set("wal.recovery.frames_dropped", float64(stats.Recovery.FramesDropped))
	if ms := stats.Recovery.WallMs + stats.Recovery.ReplayWallMs; ms > 0 {
		r.set("wal.replay.frames_per_s", float64(stats.Recovery.FramesReplayed)/(ms/1000))
	}
	if err := re.stop(); err != nil {
		r.fail("%v", err)
	}
	return nil
}

func streamCounts(streams []*connStream) (sent, repeats int) {
	for _, s := range streams {
		sent += s.sent
		repeats += s.repeats
	}
	return sent, repeats
}

func samplesOf(recs []record) []sample {
	out := make([]sample, len(recs))
	for i := range recs {
		out[i] = recs[i].sample
	}
	return out
}

// checkRecords fills the oracle for every covered statement the run reached
// and fails each response whose row_count differs from the oracle's count for
// the rung the response names. It also records why requests failed.
func (r *run) checkRecords(ctx context.Context, o *oracle, recs []record) error {
	seen := map[*stmt]struct{}{}
	var need []*stmt
	for i := range recs {
		st := recs[i].st
		if _, dup := seen[st]; !dup && st.covered && !st.filled {
			seen[st] = struct{}{}
			need = append(need, st)
		}
	}
	if err := o.fillAll(ctx, need); err != nil {
		return err
	}
	checked := 0
	for i := range recs {
		rec := &recs[i]
		if !rec.ok {
			r.fail("%q: %s", rec.st.sql, rec.errMsg)
			continue
		}
		if !rec.st.covered {
			continue
		}
		checked++
		if want := rec.st.expect(rec.fromApprox); rec.rows != want {
			rec.ok = false
			r.fail("%q: row_count %d (approx=%v), oracle says %d", rec.st.sql, rec.rows, rec.fromApprox, want)
		}
	}
	r.detail["oracle_checked"] = checked
	return nil
}

// answerScore is Equation 1 through the wire: the mean, over oracle-covered
// SPJ requests, of min(1, row_count / min(F, |q(T)|)).
func answerScore(recs []record) float64 {
	var sum float64
	n := 0
	for i := range recs {
		rec := &recs[i]
		if rec.ok && rec.st.covered && rec.st.filled && rec.st.spj {
			sum += rec.st.score(rec.rows)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

type routes struct {
	approx, full, degraded float64
	shed                   int
}

func routeShares(recs []record) routes {
	var rt routes
	var approx, full, degraded int
	for i := range recs {
		switch rec := &recs[i]; {
		case rec.status == http.StatusServiceUnavailable:
			rt.shed++
		case rec.errMsg == "degraded answer":
			degraded++
		case rec.status != http.StatusOK:
		case rec.fromApprox:
			approx++
		default:
			full++
		}
	}
	if n := float64(approx + full + degraded); n > 0 {
		rt.approx, rt.full, rt.degraded = float64(approx)/n, float64(full)/n, float64(degraded)/n
	}
	return rt
}

// familyRow describes what one template family contributed to a run.
type familyRow struct {
	Requests    int     `json:"requests"`
	ApproxShare float64 `json:"approx_share"`
	RowsP50     float64 `json:"rows_p50"`
	RowsP99     float64 `json:"rows_p99"`
	LatencyP50  float64 `json:"latency_p50_ms"`
	LatencyP99  float64 `json:"latency_p99_ms"`
}

// slowRow is one of a run's slowest requests, for whoever reads the run
// document to see what the tail is made of.
type slowRow struct {
	SQL        string  `json:"sql"`
	LatencyMs  float64 `json:"latency_ms"`
	Rows       int     `json:"rows"`
	FromApprox bool    `json:"from_approx"`
}

func slowest(recs []record, n int) []slowRow {
	idx := make([]int, len(recs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return recs[idx[a]].latency > recs[idx[b]].latency })
	var out []slowRow
	for _, i := range idx[:min(n, len(idx))] {
		rec := &recs[i]
		out = append(out, slowRow{rec.st.sql, float64(rec.latency) / float64(time.Millisecond), rec.rows, rec.fromApprox})
	}
	return out
}

func familyTable(recs []record) map[string]familyRow {
	type acc struct {
		rows, lat []float64
		approx    int
	}
	var accs [numFamilies]acc
	for i := range recs {
		rec := &recs[i]
		a := &accs[rec.st.fam]
		a.rows = append(a.rows, float64(rec.rows))
		a.lat = append(a.lat, float64(rec.latency)/float64(time.Millisecond))
		if rec.fromApprox {
			a.approx++
		}
	}
	out := map[string]familyRow{}
	for f, a := range accs {
		if len(a.rows) == 0 {
			continue
		}
		out[familyNames[f]] = familyRow{
			Requests:    len(a.rows),
			ApproxShare: float64(a.approx) / float64(len(a.rows)),
			RowsP50:     quantile(a.rows, 0.5),
			RowsP99:     quantile(a.rows, 0.99),
			LatencyP50:  quantile(a.lat, 0.5),
			LatencyP99:  quantile(a.lat, 0.99),
		}
	}
	return out
}
