package sqlparse_test

import (
	"testing"

	"asqprl/internal/core"
	"asqprl/internal/datagen"
	"asqprl/internal/sqlparse"
)

// BenchmarkParse parses the 120 statements the query generator writes at the
// serving bench's shape (seed 1, 15 % aggregates), one per iteration.
func BenchmarkParse(b *testing.B) {
	w, err := core.GenerateWorkload(datagen.IMDB(0.02, 1), core.GenOptions{N: 120, AggregateProb: 0.15, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sqls := w.SQLs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(sqls[i%len(sqls)]); err != nil {
			b.Fatal(err)
		}
	}
}
