package core

import (
	"context"
	"math/rand"
	"testing"

	"asqprl/internal/datagen"
	"asqprl/internal/embed"
	"asqprl/internal/engine"
)

// BenchmarkPreprocess is preprocessing at the benchmark's train_pipeline
// shape: IMDB at scale 0.2, the 48 training statements of a 60-statement
// generated workload (15 % aggregates) split 80/20, k = 200, F = 50.
func BenchmarkPreprocess(b *testing.B) {
	db := datagen.IMDB(0.2, 1)
	w, err := GenerateWorkload(db, GenOptions{N: 60, AggregateProb: 0.15, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	train, _ := w.Split(0.8, rand.New(rand.NewSource(1)))
	cfg := DefaultConfig()
	cfg.K, cfg.F, cfg.Seed = 200, 50, 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PreprocessContext(context.Background(), db, train, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimate is the estimator at the serving bench's shape: 120
// generated training statements embedded in 64 dimensions, asked about 120
// statements of another generated workload, aggregates through their SPJ
// rewrite as the ladder asks.
func BenchmarkEstimate(b *testing.B) {
	db := datagen.IMDB(0.02, 1)
	train, err := GenerateWorkload(db, GenOptions{N: 120, AggregateProb: 0.15, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	asked, err := GenerateWorkload(db, GenOptions{N: 120, AggregateProb: 0.15, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, len(train))
	for i := range scores {
		scores[i] = rng.Float64()
	}
	e := NewEstimator(embed.Embedder{Dim: 64}, train.Statements(), scores, estimatorNeighbors)
	stmts := asked.Statements()
	for i, s := range stmts {
		if s.HasAggregates() {
			stmts[i] = engine.RewriteAggregateToSPJ(s)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Estimate(stmts[i%len(stmts)])
	}
}
