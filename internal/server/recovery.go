package server

import (
	"context"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/engine"
	"asqprl/internal/obs"
	"asqprl/internal/retrain"
	"asqprl/internal/sqlparse"
	"asqprl/internal/wal"
)

// RecoveryInfo is the startup-replay report surfaced in /stats: the WAL
// scan's repair stats plus what the server rebuilt from the tail.
type RecoveryInfo struct {
	wal.RecoveryStats
	// ServedSeen counts served-statement records in the replayed tail
	// (informational: they need no state rebuild, the count proves the tail
	// was read).
	ServedSeen int `json:"served_seen"`
	// DriftRestored is how many drift observations were re-fed into the live
	// system's drift detector.
	DriftRestored int `json:"drift_restored"`
	// RetrainAttemptsRestored is the pre-crash attempt count whose backoff
	// was re-armed on the retrain controller (0 when the last batch had no
	// outstanding failures).
	RetrainAttemptsRestored int `json:"retrain_attempts_restored"`
	// ReplayWallMs is how long applying the tail took (the scan time is in
	// RecoveryStats.WallMs).
	ReplayWallMs float64 `json:"replay_wall_ms"`
	// DiagBundles counts flight-recorder bundle records in the replayed
	// tail. Non-zero means the previous process captured a diagnostic
	// bundle (an SLO fast-burn or an operator capture) after its last
	// checkpoint and then died — it crashed while alerting. LastDiagReason
	// and LastDiagBundle identify the most recent capture so the operator
	// knows which on-disk bundle to open first.
	DiagBundles    int    `json:"diag_bundles,omitempty"`
	LastDiagReason string `json:"last_diag_reason,omitempty"`
	LastDiagBundle string `json:"last_diag_bundle,omitempty"`
	// CrashedWhileAlerting is the headline flag derived from DiagBundles.
	CrashedWhileAlerting bool `json:"crashed_while_alerting,omitempty"`
}

// BeginRecovery puts the server into the recovering state: /readyz reports
// 503 "recovering" and Ready() is false until Recover completes. Call it
// before the (possibly slow) snapshot load + WAL replay so a load balancer
// never routes to a half-restored server.
func (s *Server) BeginRecovery() { s.recovering.Store(true) }

// Recover applies a WAL recovery to sys and publishes it, ending the
// recovering state. The replay is idempotent with respect to what the
// snapshot already captured — wal.Open only hands back the tail after the
// last checkpoint, and a checkpoint is only ever written when the snapshot on
// disk captured the state.
//
// Replay semantics over the tail, in log order:
//
//   - drift records accumulate as the pending evidence batch;
//   - a retrain "swapped", "rolled_back", or "gave_up" event means the batch
//     up to that point was consumed (or deliberately discarded) — the pending
//     evidence resets, as does the failure count;
//   - a retrain "failed" event keeps the evidence pending and records the
//     attempt number, so the controller's backoff can resume where the crash
//     interrupted it ("started"/"validated" change nothing: the drift batch
//     they consumed is restored from the drift records themselves);
//   - whatever evidence survives to the end of the tail is re-observed into
//     sys's drift detector with its original confidence, reproducing the
//     detector's pre-crash drifted set (modulo frames lost to corruption,
//     which are counted, never silent).
func (s *Server) Recover(sys *core.System, rec wal.Recovery) RecoveryInfo {
	start := time.Now()
	_, span := obs.StartSpan(context.Background(), "wal/recover")
	defer span.End()

	info := RecoveryInfo{RecoveryStats: rec.Stats}
	var pendingDrift []wal.Record
	attempts := 0
	for _, r := range rec.Tail {
		switch r.Type {
		case wal.TypeServed:
			info.ServedSeen++
		case wal.TypeDrift:
			pendingDrift = append(pendingDrift, r)
		case wal.TypeDiag:
			info.DiagBundles++
			info.LastDiagReason = r.Event
			info.LastDiagBundle = r.Path
		case wal.TypeRetrain:
			switch r.Event {
			case "swapped", "rolled_back", "gave_up":
				pendingDrift = nil
				attempts = 0
			case "failed":
				attempts = r.Attempt
			}
		}
	}

	if d := sys.Drift(); d != nil {
		// The detector is bounded; older evidence than it would still hold
		// is not worth parsing.
		if over := len(pendingDrift) - d.Limit(); over > 0 {
			pendingDrift = pendingDrift[over:]
		}
		for _, r := range pendingDrift {
			stmt, err := sqlparse.Parse(r.SQL)
			if err != nil {
				continue // a drift record that no longer parses is just lost evidence
			}
			// Mirror the serving path: drift is observed on the SPJ rewrite of
			// aggregate statements, so the restored batch fine-tunes on the
			// same statements the live path would have produced.
			if stmt.HasAggregates() {
				stmt = engine.RewriteAggregateToSPJ(stmt)
			}
			if drifted, _ := d.ObserveDetail(stmt, r.Confidence); drifted {
				info.DriftRestored++
			}
		}
	}
	if attempts > 0 && s.ret != nil {
		s.ret.Restore(attempts)
		info.RetrainAttemptsRestored = attempts
	}
	if info.DiagBundles > 0 {
		info.CrashedWhileAlerting = true
		obs.Logger().Warn("recovery: crashed while alerting — a diagnostic bundle "+
			"was captured after the last checkpoint; inspect it before trusting this restart",
			"bundles", info.DiagBundles,
			"last_reason", info.LastDiagReason,
			"last_bundle", info.LastDiagBundle)
	}

	info.ReplayWallMs = float64(time.Since(start).Microseconds()) / 1e3
	span.Annotate("frames_replayed", rec.Stats.FramesReplayed)
	span.Annotate("drift_restored", info.DriftRestored)
	s.recMu.Lock()
	ri := info
	s.recInfo = &ri
	s.recMu.Unlock()

	s.SetSystem(sys)
	s.recovering.Store(false)
	// The incumbent is live: a restored batch that already meets the
	// threshold needs no new query to wake the retrain loop.
	if d := sys.Drift(); d != nil && d.Triggered() {
		s.ret.Wake()
	}
	obs.Logger().Info("recovery complete",
		"frames_replayed", rec.Stats.FramesReplayed,
		"frames_dropped", rec.Stats.FramesDropped,
		"truncated_bytes", rec.Stats.TruncatedBytes,
		"drift_restored", info.DriftRestored,
		"retrain_attempts_restored", info.RetrainAttemptsRestored,
		"replay_ms", info.ReplayWallMs)
	return info
}

// RecoveryInfo returns the finished startup-replay report, or nil when the
// server never recovered from a WAL (durability off, or fresh start).
func (s *Server) RecoveryInfo() *RecoveryInfo {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	if s.recInfo == nil {
		return nil
	}
	ri := *s.recInfo
	return &ri
}

// journalRetrain is the retrain.Hooks.Journal implementation: lifecycle
// events get the durable (fsync-acknowledged) append, and a persisted swap or
// rollback checkpoints the log at the just-published generation — the
// snapshot on disk now captures the consumed drift batch, so the log's
// history before this point is dead weight.
func (s *Server) journalRetrain(ev retrain.Event) {
	_, gen := s.System()
	err := s.wal.Append(wal.Record{
		Type:       wal.TypeRetrain,
		UnixNs:     time.Now().UnixNano(),
		Event:      ev.Name,
		Queries:    ev.Queries,
		Attempt:    ev.Attempt,
		Generation: gen,
	})
	if err != nil {
		obs.Logger().Warn("retrain journal append failed", "event", ev.Name, "err", err)
		walAppendErrors.Inc()
		return
	}
	if ev.Persisted && (ev.Name == "swapped" || ev.Name == "rolled_back") {
		if err := s.wal.Checkpoint(gen); err != nil {
			obs.Logger().Warn("wal checkpoint failed", "generation", gen, "err", err)
		}
	}
}
