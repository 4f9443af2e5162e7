package server

import (
	"reflect"
	"strings"
	"testing"

	"asqprl/internal/audit"
	"asqprl/internal/core"
	"asqprl/internal/diag"
	"asqprl/internal/retrain"
	"asqprl/internal/rl"
	"asqprl/internal/wal"
)

// TestConfigSurfaceIsClosed pins the exported fields of every struct a server
// is configured through. A field exists only where a caller sets it (a flag,
// an experiment, LightConfig, the bench module) or a test cannot reach its
// bound otherwise; a value nothing sets is a constant. So a new field shows
// up here as a deliberate diff, and its CHANGES.md entry names the caller.
func TestConfigSurfaceIsClosed(t *testing.T) {
	want := map[string]string{
		"core.Config": "K F NumRepresentatives TrainFraction ActionSpaceSize ActionGroupSize " +
			"MaxTrackedPerQuery RelaxFactor RelaxDrop Environment DRPHorizon Episodes " +
			"EarlyStopPatience RL EmbedDim DriftConfidence DriftCount Parallelism Seed",
		"rl.Config": "Hidden LR Gamma ClipEpsilon EntropyCoef KLCoef UseCritic Epochs Workers " +
			"EpisodesPerIteration Seed",
		"server.Config": "Addr MaxInFlight QueueDepth DefaultTimeout MaxRows " +
			"DrainTimeout Seed AuditSample DriftObserve " +
			"Retrain WAL SLOAvailability SLOLatencyP99 SLOQualityP95 SLOClock DiagDir",
		"retrain.Config": "Enabled Timeout ValidateMargin RollbackWindow Backoff SnapshotPath Seed",
		"audit.Config":   "SampleRate Seed",
		"diag.Config":    "Dir Now",
		"wal.Options":    "",
	}
	settable := 0
	for _, v := range []any{
		core.Config{}, rl.Config{}, Config{}, retrain.Config{}, audit.Config{},
		diag.Config{}, wal.Options{},
	} {
		typ := reflect.TypeOf(v)
		var fields []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fields = append(fields, f.Name)
			}
		}
		settable += len(fields)
		name := typ.String()
		if got := strings.Join(fields, " "); got != want[name] {
			t.Errorf("%s fields changed:\n got: %s\nwant: %s", name, got, want[name])
		}
	}
	t.Logf("settable values: %d", settable)
}
