package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"asqprl/internal/rl"
	"asqprl/internal/table"
)

// setDigest is the sha256 of a subset's sorted row ids.
func setDigest(s *table.Subset) string {
	h := sha256.New()
	for _, id := range s.IDs() {
		fmt.Fprintf(h, "%s:%d\n", id.Table, id.Row)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// returnsDigest is the sha256 of the per-iteration mean returns' bit patterns.
func returnsDigest(history []rl.IterationStats) string {
	h := sha256.New()
	var b [8]byte
	for _, it := range history {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(it.MeanReturn))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainedSetPinned holds training to the bits it produced before the
// reward bookkeeping moved into internal/metrics (values computed at commit
// 3fbc650): the trained set and the learning curve of the test fixture, under
// each environment. A change that moves them changed the reward, the RNG
// order or the float operations, and has to say so.
func TestTrainedSetPinned(t *testing.T) {
	pinned := []struct {
		env          EnvironmentKind
		iterations   int
		set, returns string
	}{
		{EnvGSL, 6, "01708e71e21d2f9c5213f8bc6c41e59aecc376efe99fa9e487e7010d51ba2cf8", "8839599408a7008f114499198ffe0ff394efa2e2f250e487ca07222d85f4738b"},
		{EnvDRP, 6, "13f63d4077a4f7970e152841bf0444a9b0ffd9976462d12c2c221112aeaff885", "9ad45c4c4b610390a3cc4099c0f1cdaf1dddf0c1b85c9a5d1c88f3bc3f97ae46"},
		{EnvHybrid, 6, "be419b575f708410bb2c96f6c147494b08ba723f9d078df86339fabe7a85780d", "e5d0258f6e284c12a17eb8c07f50e8241fb8710a099411e1e82193e5c77bdda5"},
	}
	for _, p := range pinned {
		p := p
		t.Run(p.env.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Environment = p.env
			sys, err := Train(testIMDB(), testWorkload(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			history := sys.Stats().RL.History
			set, returns := setDigest(sys.Set()), returnsDigest(history)
			if len(history) != p.iterations || set != p.set || returns != p.returns {
				t.Errorf("{Env%s, %d, %q, %q}, want {%d, %q, %q}",
					p.env, len(history), set, returns, p.iterations, p.set, p.returns)
			}
		})
	}
}
