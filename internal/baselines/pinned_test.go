package baselines

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"
)

// TestSubsetsPinned holds the lineage-driven baselines to the subsets they
// built before they moved onto metrics.Tracker (values computed at commit
// 3fbc650). No query of the fixture has more than lineageCap result tuples,
// so the cap — the one thing that change altered — is not in play, and GRE+
// runs to completion well inside the time budget.
func TestSubsetsPinned(t *testing.T) {
	pinned := []struct {
		b      Builder
		size   int
		digest string
	}{
		{TopQueried{}, 200, "7a35f41daf9032c096f799040ff81e481cdd3f1abd5700536ac77cb33ec2bcb1"},
		{Caching{}, 200, "53875753c533f497eddb43633f0d79c271da2729575744ae038132d3ceae4c23"},
		{Verdict{}, 200, "d15f03a816c6c4f4ca22441cd26dbe2b36f53eca8e19b2136d64a4190e026234"},
		{Greedy{}, 200, "0d4e14c3cb96cdf4c08518c02f519f04dad231fb4a76cc6f94696b90f235508a"},
	}
	db, w := testDB(), testWorkload()
	o := opts()
	o.TimeBudget = time.Minute
	for _, p := range pinned {
		s, err := p.b.Build(db, w, 200, o)
		if err != nil {
			t.Fatalf("%s: %v", p.b.Name(), err)
		}
		h := sha256.New()
		for _, id := range s.IDs() {
			fmt.Fprintf(h, "%s:%d\n", id.Table, id.Row)
		}
		if got := hex.EncodeToString(h.Sum(nil)); s.Size() != p.size || got != p.digest {
			t.Errorf("%s: {%d, %q}, want {%d, %q}", p.b.Name(), s.Size(), got, p.size, p.digest)
		}
	}
}
