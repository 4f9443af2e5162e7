package core

import (
	"testing"

	"asqprl/internal/obs"
)

// keepEveryTrace turns tracing on at sample rate 1 for one test, so every
// finished root span tree is in obs.KeptTraces, and restores the previous
// observability state afterwards.
func keepEveryTrace(t *testing.T) {
	t.Helper()
	prev := obs.Enabled()
	obs.ConfigureTracing(obs.TracingConfig{SampleRate: 1})
	obs.ResetTraces()
	t.Cleanup(func() {
		obs.DisableTracing()
		obs.ResetTraces()
		obs.SetEnabled(prev)
	})
}

// TestTrainProducesSpansAndSeries runs a small end-to-end training with
// observability enabled and checks the acceptance surface: a per-stage
// preprocessing span tree nested under the train span, and non-empty
// per-iteration learning-curve series in the registry.
func TestTrainProducesSpansAndSeries(t *testing.T) {
	keepEveryTrace(t)
	obs.Default().Reset()
	t.Cleanup(obs.Default().Reset)

	cfg := testConfig()
	cfg.Episodes = 8
	sys, err := Train(testIMDB(), testWorkload(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Stats().RL.Iterations == 0 {
		t.Fatal("no RL iterations ran")
	}

	var train *obs.SpanSnapshot
	for _, rec := range obs.KeptTraces() {
		if rec.Root.Name == "train" {
			train = &rec.Root
		}
	}
	if train == nil {
		t.Fatal("no train span recorded")
	}
	var pre *obs.SpanSnapshot
	for i := range train.Children {
		if train.Children[i].Name == "preprocess" {
			pre = &train.Children[i]
		}
	}
	if pre == nil {
		t.Fatalf("train span has no preprocess child: %+v", train.Children)
	}
	stages := map[string]bool{}
	for _, c := range pre.Children {
		stages[c.Name] = true
	}
	for _, want := range []string{
		"preprocess/relax", "preprocess/embed", "preprocess/select",
		"preprocess/execute", "preprocess/subsample",
	} {
		if !stages[want] {
			t.Errorf("preprocess span missing stage %q (have %v)", want, stages)
		}
	}

	snap := obs.Default().Snapshot()
	for _, name := range []string{"rl/mean_return", "rl/policy_loss", "rl/entropy"} {
		if got := len(snap.Series[name]); got != sys.Stats().RL.Iterations {
			t.Errorf("series %q has %d points, want %d", name, got, sys.Stats().RL.Iterations)
		}
	}
	if snap.Counters["engine/queries"] == 0 {
		t.Error("preprocessing should have recorded engine query metrics")
	}
	if snap.Gauges["core/train/set_size"] != float64(sys.Stats().SetSize) {
		t.Errorf("core/train/set_size = %f, want %d", snap.Gauges["core/train/set_size"], sys.Stats().SetSize)
	}
}
