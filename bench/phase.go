package main

import (
	"context"
	"time"
)

// phase is the measured closed loop of a run and what was read around it.
type phase struct {
	recs        []record
	dur         time.Duration
	cpu         time.Duration // the serving process's utime+stime over the phase
	peakMB      float64       // its VmHWM at the end of the phase
	speed       float64       // calibrator speed during the phase
	repeatShare float64       // share of requests whose text had been sent before
}

// measure warms the connections up and runs the closed loop, reading the
// serving process's CPU time and peak resident set around it: pid is the
// server child's, or "self" for train_pipeline. The traced run gives the
// closed loop half of -seconds and keeps the other half for the paced phase
// and the replay.
func (r *run) measure(reqs []requester, streams []*connStream, pid string, cal *calibrator) (phase, error) {
	ph := phase{dur: time.Duration(r.seconds) * time.Second}
	if r.trace {
		ph.dur /= 2
	}
	if _, err := closedLoop(reqs, streams, warmup(r.seconds)); err != nil {
		return ph, err
	}
	cpu0, _, err := procUsage(pid)
	if err != nil {
		return ph, err
	}
	sent0, repeats0 := streamCounts(streams)
	start := time.Now()
	if ph.recs, err = closedLoop(reqs, streams, ph.dur); err != nil {
		return ph, err
	}
	ph.speed = cal.speedBetween(start, time.Now())
	cpu1, peakMB, err := procUsage(pid)
	if err != nil {
		return ph, err
	}
	ph.cpu, ph.peakMB = cpu1-cpu0, peakMB
	sent, repeats := streamCounts(streams)
	ph.repeatShare = float64(repeats-repeats0) / float64(sent-sent0)
	return ph, nil
}

// account checks the phase's answers against the oracle and turns it into
// the run's counts and metrics: the end-to-end ones at the reference speed
// (calibrate.go), with the values as measured and the speeds they were
// measured at kept in the run document, and the load generator's and the
// router's per-layer ones.
func (r *run) account(ctx context.Context, o *oracle, ph phase, setupSpeed float64) error {
	if err := r.checkRecords(ctx, o, ph.recs); err != nil {
		return err
	}
	sum, err := summarize(samplesOf(ph.recs), ph.dur, time.Duration(r.spec.LimitMs*float64(time.Millisecond)), wantSegments)
	if err != nil {
		r.fail("%v", err)
	}
	r.detail["closed_loop"] = sum
	r.detail["families"] = familyTable(ph.recs)
	r.detail["slowest"] = slowest(ph.recs, 10)
	r.attempted += len(ph.recs)
	for _, rec := range ph.recs {
		if !rec.ok {
			r.failed++
		}
	}

	cpuPerReq := float64(ph.cpu) / float64(time.Millisecond) / float64(len(ph.recs))
	r.detail["as_measured"] = map[string]float64{
		"latency_p50_ms": sum.P50Ms, "latency_p99_ms": sum.P99Ms, "goodput_rps": sum.GoodputRPS,
		"cpu_ms_per_req": cpuPerReq, "setup_s": median(r.setups),
	}
	r.detail["setup_samples_s"] = r.setups
	r.detail["calibration"] = map[string]float64{"speed": ph.speed, "setup_speed": setupSpeed, "nominal_speed": nominalSpeed}
	r.set("latency_p50_ms", atReference(sum.P50Ms, ph.speed))
	r.set("latency_p99_ms", atReference(sum.P99Ms, ph.speed))
	r.set("goodput_rps", rateAtReference(sum.GoodputRPS, ph.speed))
	r.set("cpu_ms_per_req", atReference(cpuPerReq, ph.speed))
	r.set("setup_s", atReference(median(r.setups), setupSpeed))
	r.set("rss_peak_mb", ph.peakMB)
	r.set("answer_score", answerScore(ph.recs))

	shares := routeShares(ph.recs)
	// The band describes the system trained on the gate corpus; the small
	// -quick corpus trains another one.
	if !r.quick && (shares.approx < r.spec.ApproxMin || shares.approx > r.spec.ApproxMax) {
		r.fail("core.route.approx_share %.3f outside the %s band [%.2f, %.2f]: fix the templates, never filter statements by how they routed",
			shares.approx, r.spec.Name, r.spec.ApproxMin, r.spec.ApproxMax)
	}
	if shares.shed > 0 {
		r.fail("server shed %d requests: two connections must never fill the admission queue", shares.shed)
	}
	r.set("loadgen.repeat_share", ph.repeatShare)
	r.set("server.shed", float64(shares.shed))
	r.set("core.route.approx_share", shares.approx)
	r.set("core.route.full_share", shares.full)
	r.set("core.route.degraded_share", shares.degraded)
	return nil
}
