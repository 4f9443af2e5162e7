package embed_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"asqprl/internal/core"
	"asqprl/internal/datagen"
	"asqprl/internal/embed"
)

// TestQueryEmbeddingsPinned holds the query and tuple embeddings to their bits:
// a SHA-256 over the embeddings of the 120 statements the query generator
// writes at the serving bench's shape (seed 1, 15 % aggregates), and over the
// first rows of every table, taken before the token hash was inlined and
// tokens stopped being built as strings.
func TestQueryEmbeddingsPinned(t *testing.T) {
	const (
		wantQueries = "fd9eef4b4a0676cea13d3e9766c2661ff61985326c0e2fa8c8b6096433be6150"
		wantRows    = "4cd2c17af499127596e8053a8161d877df7306ded2c17c40390fa1d980609fdd"
	)
	db := datagen.IMDB(0.02, 1)
	w, err := core.GenerateWorkload(db, core.GenOptions{N: 120, AggregateProb: 0.15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 120 {
		t.Fatalf("generator wrote %d statements, want 120", len(w))
	}
	emb := embed.Embedder{Dim: embed.DefaultDim}
	q := sha256.New()
	for _, stmt := range w.Statements() {
		writeVec(q, emb.Query(stmt))
	}
	r := sha256.New()
	for _, tb := range db.Tables() {
		for i := 0; i < min(50, tb.NumRows()); i++ {
			writeVec(r, emb.Row(tb.Name, tb.Schema, tb.Row(i)))
		}
	}
	if got := hex.EncodeToString(q.Sum(nil)); got != wantQueries {
		t.Errorf("query embeddings hash to %s, want %s", got, wantQueries)
	}
	if got := hex.EncodeToString(r.Sum(nil)); got != wantRows {
		t.Errorf("row embeddings hash to %s, want %s", got, wantRows)
	}
}

func writeVec(h interface{ Write([]byte) (int, error) }, v []float64) {
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}
