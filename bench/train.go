package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/nn"
	"asqprl/internal/obs"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

const (
	trainSetups      = 5  // from-scratch trainings per end-to-end run; setup_s is their median
	fineTuneQueries  = 20 // explore_miss statements the clone is fine-tuned on
	fineTuneEpisodes = 16
)

// inproc answers statements with System.QueryContext in the bench process:
// train_pipeline's "connection".
type inproc struct {
	ctx  context.Context
	sys  *core.System
	opts core.QueryOptions
}

func (p *inproc) do(st *stmt) (reply, error) {
	res, err := p.sys.QueryContext(p.ctx, st.sql, p.opts)
	if err != nil {
		return reply{status: http.StatusInternalServerError, detail: err.Error()}, nil
	}
	return reply{status: http.StatusOK, rows: res.Table.NumRows(), fromApprox: res.FromApproximation, degraded: res.Degraded}, nil
}

// trained is one from-scratch set-up of the offline pipeline.
type trained struct {
	db          *table.Database
	train, test workload.Workload
	sys         *core.System
	csvRead     time.Duration
	total       time.Duration
}

// pipelineParents is the containment tree of the offline pipeline's trace:
// the stages are roots, timed one after another; preprocessing alone is the
// part of training it is.
var pipelineParents = map[string]string{
	"core.preprocess": "core.train",
}

func trainConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.K = trainK
	cfg.F = frameF
	cfg.Seed = corpusSeed
	return cfg
}

// setUp runs the paper's setup-time axis once: read the CSVs, parse and split
// the workload, train from scratch with the default configuration.
func setUp(ctx context.Context, c *corpus, t *tracer) (*trained, error) {
	var out trained
	var err error
	start := time.Now()
	t.timed("table.csv.read", func() { out.db, out.csvRead, err = c.loadDB() })
	if err != nil {
		return nil, err
	}
	t.timed("workload.parse", func() {
		var w workload.Workload
		if w, err = c.loadTrainingWorkload(); err == nil {
			out.train, out.test = w.Split(0.8, rand.New(rand.NewSource(corpusSeed)))
		}
	})
	if err != nil {
		return nil, err
	}
	t.timed("core.train", func() { out.sys, err = core.TrainContext(ctx, out.db, out.train, trainConfig()) })
	if err != nil {
		return nil, err
	}
	out.total = time.Since(start)
	return &out, nil
}

func (r *run) trainPipeline(ctx context.Context) error {
	// The binaries that train in production (asqp-serve) run with obs on.
	obs.ConfigureTracing(obs.TracingConfig{SampleRate: 0.01, SlowThreshold: 500 * time.Millisecond})
	c, err := ensureCorpus(r.outDir, trainScale, trainQueries)
	if err != nil {
		return err
	}

	setups := trainSetups
	if r.trace {
		setups = 1
		// Before anything else is resident: the table layer on its own.
		_, tp, err := loadProbed(c)
		if err != nil {
			return err
		}
		tp.report(r)
	}
	epoch := time.Now()
	pipeline := r.newTrace(epoch, pipelineParents)
	var tr *trained
	cal := startCalibrator()
	defer cal.close()
	setupStart := time.Now()
	for i := 0; i < setups; i++ {
		// Each set-up starts from a collected heap, as separate processes
		// would: the peak resident set is then one training's, not a matter
		// of when the collector got round to the previous system.
		tr = nil
		runtime.GC()
		if tr, err = setUp(ctx, c, pipeline); err != nil {
			return err
		}
		r.setups = append(r.setups, tr.total.Seconds())
	}
	setupSpeed := cal.speedBetween(setupStart, time.Now())

	src, err := newSources(ctx, tr.db, r.seed, mixes[r.spec.Name])
	if err != nil {
		return err
	}
	o := &oracle{sys: tr.sys}
	if err := o.fillAll(ctx, src.hot); err != nil {
		return err
	}
	reqs := make([]requester, connections)
	streams := make([]*connStream, connections)
	for i := range reqs {
		reqs[i] = &inproc{ctx: ctx, sys: tr.sys, opts: core.QueryOptions{MaxRows: 100000, SkipDrift: true}}
		streams[i] = newConnStream(src, mixes[r.spec.Name], r.seed, i, connections)
	}
	ph, err := r.measure(reqs, streams, "self", cal)
	if err != nil {
		return err
	}
	if err := r.account(ctx, o, ph, setupSpeed); err != nil {
		return err
	}
	if !r.trace {
		return nil
	}
	r.set("loadgen.sent", float64(r.attempted))
	r.set("loadgen.ok", float64(r.attempted-r.failed))
	r.set("loadgen.failed", float64(r.failed))
	if err := r.tracedReplay(ctx, replayTarget{sys: tr.sys}, streams[0]); err != nil {
		return err
	}
	return r.pipelineLayers(ctx, tr, pipeline)
}

// pipelineLayers times the offline pipeline's stages one by one, each from
// outside through the layer's public functions.
func (r *run) pipelineLayers(ctx context.Context, tr *trained, t *tracer) error {
	cfg := trainConfig()
	var err error

	start := time.Now()
	tr.sys.Set().Materialize(tr.db)
	r.set("table.materialize.busy_ms", float64(time.Since(start))/float64(time.Millisecond))

	trainTook := tr.total - tr.csvRead
	pre := t.timed("core.preprocess", func() { _, err = core.PreprocessContext(ctx, tr.db, tr.train, cfg) })
	if err != nil {
		return err
	}
	r.set("core.preprocess.busy_s", pre.Seconds())
	r.set("core.train.busy_s", trainTook.Seconds())
	agent := max(0, trainTook-pre)
	r.set("core.train.agent_s", agent.Seconds())

	st := tr.sys.Stats()
	r.set("rl.iterations", float64(st.RL.Iterations))
	r.set("rl.steps", float64(st.RL.TotalSteps))
	if agent > 0 {
		r.set("rl.steps_per_s", float64(st.RL.TotalSteps)/agent.Seconds())
	}
	r.set("rl.best_return", st.RL.BestReturn)
	r.set("core.set.size", float64(tr.sys.Set().Size()))
	r.set("core.set.over_budget", float64(max(0, tr.sys.Set().Size()-cfg.K)))

	var scoreTrain, scoreTest float64
	score := t.timed("metrics.score", func() {
		if scoreTrain, err = tr.sys.ScoreOn(tr.train); err == nil {
			scoreTest, err = tr.sys.ScoreOn(tr.test)
		}
	})
	if err != nil {
		return err
	}
	r.set("metrics.score.busy_ms", float64(score)/float64(time.Millisecond))
	r.set("metrics.score_train", scoreTrain)
	r.set("metrics.score_test", scoreTest)

	snap := filepath.Join(r.runDir, "pipeline.snap")
	save := t.timed("core.snapshot.save", func() { err = tr.sys.SaveFile(snap) })
	if err != nil {
		return err
	}
	var loaded *core.System
	load := t.timed("core.snapshot.load", func() { loaded, err = core.LoadFile(tr.db, snap) })
	if err != nil {
		return err
	}
	if loaded.Set().Size() != tr.sys.Set().Size() {
		r.fail("snapshot round trip changed the set: %d -> %d tuples", tr.sys.Set().Size(), loaded.Set().Size())
	}
	r.set("core.snapshot.save_s", save.Seconds())
	r.set("core.snapshot.load_s", load.Seconds())
	if fi, err := os.Stat(snap); err == nil {
		r.set("core.snapshot.bytes", float64(fi.Size()))
	}

	var clone *core.System
	cl := t.timed("core.clone", func() { clone, err = tr.sys.Clone() })
	if err != nil {
		return err
	}
	r.set("core.clone.busy_s", cl.Seconds())
	miss := missPool(tr.db, r.seed)
	var sqls []string
	for i := 0; i < fineTuneQueries; i++ {
		m, err := miss.at(i)
		if err != nil {
			return err
		}
		sqls = append(sqls, m.sql)
	}
	drifted, err := workload.New(sqls...)
	if err != nil {
		return err
	}
	ft := t.timed("core.finetune", func() { err = clone.FineTuneContext(ctx, drifted, fineTuneEpisodes) })
	if err != nil {
		return fmt.Errorf("fine-tune the clone: %w", err)
	}
	r.set("core.finetune.busy_s", ft.Seconds())

	// The policy network at the trained agent's dimensions.
	sizes := append([]int{cfg.NumRepresentatives + 2}, cfg.RL.Hidden...)
	sizes = append(sizes, cfg.ActionSpaceSize)
	rng := rand.New(rand.NewSource(corpusSeed))
	mlp := nn.NewMLP(rng, nn.ActTanh, sizes...)
	x := make([]float64, sizes[0])
	for i := range x {
		x[i] = rng.Float64()
	}
	dOut := make([]float64, cfg.ActionSpaceSize)
	dOut[0] = 1
	grads := mlp.NewGrads()
	var fwd, bwd []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		cache := mlp.ForwardCache(x)
		t1 := time.Now()
		mlp.Backward(cache, dOut, grads)
		t2 := time.Now()
		fwd = append(fwd, us(t1.Sub(t0)))
		bwd = append(bwd, us(t2.Sub(t1)))
	}
	r.set("nn.forward.busy_us_p50", quantile(fwd, 0.5))
	r.set("nn.backward.busy_us_p50", quantile(bwd, 0.5))
	return nil
}
