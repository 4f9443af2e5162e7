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
// preprocessing span tree nested under the train span, and the learning
// curves' one home, Stats().RL.History, holding an entry per iteration.
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
	if got := len(sys.Stats().RL.History); got != sys.Stats().RL.Iterations {
		t.Errorf("History has %d entries, want one per iteration (%d)", got, sys.Stats().RL.Iterations)
	}
	if snap.Counters["engine/scan/rows_read"] == 0 {
		t.Error("preprocessing should have recorded the engine's scan counters")
	}
}
