package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"asqprl/internal/datagen"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

var testDB = datagen.IMDB(quickScale, corpusSeed)

// requestBytes is the first n request bodies of every connection of a
// workload, concatenated: what goes over the wire for (workload, seed).
func requestBytes(t *testing.T, db *table.Database, workload string, seed int64, n int) []byte {
	t.Helper()
	src, err := newSources(context.Background(), db, seed, mixes[workload])
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for c := 0; c < connections; c++ {
		s := newConnStream(src, mixes[workload], seed, c, connections)
		for i := 0; i < n; i++ {
			st, err := s.next()
			if err != nil {
				t.Fatal(err)
			}
			out.Write(st.body)
			out.WriteByte('\n')
		}
	}
	return out.Bytes()
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := requestBytes(t, testDB, w.Name, 7, 300)
		b := requestBytes(t, testDB, w.Name, 7, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request streams", w.Name)
		}
		c := requestBytes(t, testDB, w.Name, 8, 300)
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.Name)
		}
	}
}

func TestEveryTemplateParses(t *testing.T) {
	for _, w := range workloads {
		for _, line := range strings.Split(strings.TrimSpace(string(requestBytes(t, testDB, w.Name, 3, 200))), "\n") {
			var req struct {
				SQL string `json:"sql"`
			}
			if err := json.Unmarshal([]byte(line), &req); err != nil {
				t.Fatalf("%s: request body %q: %v", w.Name, line, err)
			}
			if _, err := sqlparse.Parse(req.SQL); err != nil {
				t.Fatalf("%s: %q does not parse: %v", w.Name, req.SQL, err)
			}
		}
	}
}

func TestRepeatShares(t *testing.T) {
	share := func(workload string) float64 {
		src, err := newSources(context.Background(), testDB, 5, mixes[workload])
		if err != nil {
			t.Fatal(err)
		}
		sent, repeats := 0, 0
		for c := 0; c < connections; c++ {
			s := newConnStream(src, mixes[workload], 5, c, connections)
			for i := 0; i < 4000; i++ {
				if _, err := s.next(); err != nil {
					t.Fatal(err)
				}
			}
			sent += s.sent
			repeats += s.repeats
		}
		return float64(repeats) / float64(sent)
	}
	// Half of explore_hit re-runs a hot-set statement (less the first sending
	// of each); explore_miss never sends a text twice.
	if got := share("explore_hit"); got < 0.42 || got > 0.52 {
		t.Errorf("explore_hit repeat share = %.3f, want about 0.5", got)
	}
	if got := share("explore_miss"); got != 0 {
		t.Errorf("explore_miss repeat share = %.3f, want 0: cache-hostile by construction", got)
	}
}

func TestPoolNeverRepeatsAndCoversEverySixteenth(t *testing.T) {
	p := missPool(testDB, 11)
	seen := map[string]bool{}
	for i := 0; i < poolChunk+100; i++ { // crosses a chunk boundary
		st, err := p.at(i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[st.sql] {
			t.Fatalf("statement %d repeats: %s", i, st.sql)
		}
		seen[st.sql] = true
		if st.covered != (i%oracleEvery == 0) {
			t.Fatalf("statement %d: covered = %v", i, st.covered)
		}
	}
}

func TestFreshNeverEqualsAHotStatement(t *testing.T) {
	// Seed corpusSeed makes the fresh pool's generator as close to the
	// catalogue's as it gets.
	src, err := newSources(context.Background(), testDB, corpusSeed, mixes["explore_hit"])
	if err != nil {
		t.Fatal(err)
	}
	if len(src.hot) != hotSetSize {
		t.Fatalf("hot set has %d statements", len(src.hot))
	}
	hot := map[string]bool{}
	for _, st := range src.hot {
		if !st.covered {
			t.Fatal("every hot statement is oracle-covered")
		}
		hot[st.sql] = true
	}
	for i := 0; i < 2000; i++ {
		st, err := src.fresh.at(i)
		if err != nil {
			t.Fatal(err)
		}
		if hot[st.sql] {
			t.Fatalf("fresh statement %d is in the hot set: %s", i, st.sql)
		}
	}
}

func TestMixDerivesDistinctSeeds(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 50; seed++ {
		for salt := int64(1); salt < 6; salt++ {
			m := mix(seed, salt)
			if m < 0 || seen[m] {
				t.Fatalf("mix(%d, %d) = %d collides or is negative", seed, salt, m)
			}
			seen[m] = true
		}
	}
}
