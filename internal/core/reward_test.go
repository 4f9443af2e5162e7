package core

import (
	"testing"

	"asqprl/internal/engine"
	"asqprl/internal/metrics"
	"asqprl/internal/sqlparse"
)

// readings is the trained set read three ways over tracked queries: the
// reward the agent was trained on (covered tracked tuples scaled by
// total/tracked), the same statements executed against the set, and the
// covered tracked tuples counted as they are.
type readings struct{ reward, executed, covered float64 }

// rewardReadings returns the readings over the representatives' original
// statements (weighted by representative) and over everything the blended
// reward tracks (originals and relaxed variants, weighted by their share of
// it), and how many tracked queries are capped. It checks, per tracked query,
// that the unscaled count never exceeds the executed one: a covered tuple is a
// row of q(S).
func rewardReadings(t *testing.T, sys *System) (originals, blended readings, capped int) {
	t.Helper()
	pre, f := sys.pre, sys.cfg.F
	tr := pre.Cover.NewTracker()
	tr.Add(sys.Set().IDs())
	read := func(q int, stmt *sqlparse.Select) readings {
		tq := pre.Cover.Queries[q]
		if len(tq.Tuples) < tq.Total {
			capped++
		}
		n, err := engine.Count(sys.SetDB(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for _, tuple := range tq.Tuples {
			in := true
			for _, id := range tuple {
				in = in && sys.Set().Contains(id)
			}
			if in {
				covered++
			}
		}
		r := readings{tr.Term(q), metrics.Term(n, tq.Total, tq.Total, f), metrics.Term(covered, tq.Total, tq.Total, f)}
		if r.covered > r.executed {
			t.Errorf("%s: %d covered tracked tuples read %.4f, above the executed %.4f (%d rows)",
				stmt, covered, r.covered, r.executed, n)
		}
		return r
	}
	add := func(sum *readings, w float64, r readings) {
		sum.reward += w * r.reward
		sum.executed += w * r.executed
		sum.covered += w * r.covered
	}
	for _, rep := range pre.Reps {
		r := read(rep.Orig, rep.Stmt)
		add(&originals, rep.Weight, r)
		add(&blended, pre.Cover.Queries[rep.Orig].Weight, r)
		if rep.Rel >= 0 {
			add(&blended, pre.Cover.Queries[rep.Rel].Weight, read(rep.Rel, rep.Relaxed))
		}
	}
	return originals, blended, capped
}

// TestRewardVersusExecutedScore measures the training reward against what it
// stands for and changes neither. With every result tuple tracked the three
// readings are one number. With a cap, the reward scales the covered count by
// total/tracked as if the set were drawn independently of the tracked sample —
// but the set is built from those very tuples, so covering need·tracked/total
// of them already reads as full coverage (DESIGN §4b).
func TestRewardVersusExecutedScore(t *testing.T) {
	for _, c := range []struct {
		name      string
		maxTuples int
	}{
		{"every tuple tracked", 1 << 30},
		{"capped at 60", 60},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.MaxTrackedPerQuery = c.maxTuples
			sys, err := Train(testIMDB(), testWorkload(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			originals, blended, capped := rewardReadings(t, sys)
			t.Logf("%d of %d tracked queries capped; reward / executed / covered tracked tuples: originals %.4f / %.4f / %.4f, blended %.4f / %.4f / %.4f",
				capped, len(sys.pre.Cover.Queries),
				originals.reward, originals.executed, originals.covered,
				blended.reward, blended.executed, blended.covered)
			for _, r := range []readings{originals, blended} {
				if capped == 0 && (r.reward != r.executed || r.executed != r.covered) {
					t.Errorf("nothing capped, yet the readings differ: %+v", r)
				}
			}
			if c.maxTuples == 60 && capped == 0 {
				t.Error("the capped configuration capped nothing")
			}
		})
	}
}
