package rl

import (
	"fmt"
	"math"

	"asqprl/internal/nn"
	"asqprl/internal/obs"
)

// checkpoint is an in-memory snapshot of the agent's learned state, encoded
// with the same serialization used for persistence so a rollback exercises
// the exact restore path a crash-recovery would.
type checkpoint struct {
	actor     []byte
	critic    []byte
	iteration int
}

// snapshot captures the current actor/critic parameters. A nil return means
// serialization failed (never expected with in-memory buffers); callers keep
// the previous checkpoint in that case.
func (a *Agent) snapshot(iteration int) *checkpoint {
	actor, err := a.actor.Marshal()
	if err != nil {
		return nil
	}
	critic, err := a.critic.Marshal()
	if err != nil {
		return nil
	}
	return &checkpoint{actor: actor, critic: critic, iteration: iteration}
}

// restore rolls the agent's networks back to ck and rebuilds both optimizers
// (their moment estimates refer to the divergent trajectory, so they reset).
func (a *Agent) restore(ck *checkpoint) error {
	if ck == nil {
		return fmt.Errorf("rl: no checkpoint to restore")
	}
	actor, err := nn.Unmarshal(ck.actor)
	if err != nil {
		return fmt.Errorf("rl: restore actor: %w", err)
	}
	critic, err := nn.Unmarshal(ck.critic)
	if err != nil {
		return fmt.Errorf("rl: restore critic: %w", err)
	}
	a.actor.CopyFrom(actor)
	a.critic.CopyFrom(critic)
	a.actorOpt = nn.NewAdam(a.actor, a.cfg.LR)
	a.criticOpt = nn.NewAdam(a.critic, a.cfg.LR)
	return nil
}

// halveLR halves the learning rate and rebuilds the optimizers with it, the
// standard response to a divergent PPO update.
func (a *Agent) halveLR() {
	a.cfg.LR /= 2
	a.actorOpt = nn.NewAdam(a.actor, a.cfg.LR)
	a.criticOpt = nn.NewAdam(a.critic, a.cfg.LR)
}

// paramsFinite reports whether every parameter of m is finite.
func paramsFinite(m *nn.MLP) bool {
	for l := range m.W {
		for _, v := range m.W[l] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		for _, v := range m.B[l] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// divergence inspects one iteration's loss telemetry and the network
// parameters and names the first divergence signal it finds: non-finite loss
// terms, KL blow-up past cfg.DivergeKL, entropy collapse below
// cfg.EntropyFloor, or non-finite parameters. An empty string means healthy.
func (a *Agent) divergence(us updateStats) string {
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"policy_loss", us.policyLoss},
		{"value_loss", us.valueLoss},
		{"entropy", us.entropy},
		{"kl", us.meanKL},
	} {
		if math.IsNaN(v.val) || math.IsInf(v.val, 0) {
			return "non-finite " + v.name
		}
	}
	if a.cfg.DivergeKL > 0 && us.meanKL > a.cfg.DivergeKL {
		return fmt.Sprintf("kl %.3g exceeds threshold %.3g", us.meanKL, a.cfg.DivergeKL)
	}
	if a.cfg.EntropyFloor > 0 && us.entropy < a.cfg.EntropyFloor {
		return fmt.Sprintf("entropy %.3g collapsed below %.3g", us.entropy, a.cfg.EntropyFloor)
	}
	if !paramsFinite(a.actor) {
		return "non-finite actor parameters"
	}
	if a.cfg.UseCritic && !paramsFinite(a.critic) {
		return "non-finite critic parameters"
	}
	return ""
}

// poison corrupts the actor with a NaN weight. It exists for the
// fault-injection harness (point rl/update) to simulate a numerically
// divergent update; the watchdog must detect and roll it back.
func (a *Agent) poison() {
	if len(a.actor.W) > 0 && len(a.actor.W[0]) > 0 {
		a.actor.W[0][0] = math.NaN()
	}
}

// logRecovery logs one watchdog recovery; TrainStats.Recoveries counts them.
func logRecovery(iteration int, reason string, lr float64) {
	obs.Logger().Warn("rl divergence recovery",
		"iter", iteration, "reason", reason, "new_lr", lr)
}
