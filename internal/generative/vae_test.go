package generative

import (
	"math"
	"testing"

	"asqprl/internal/datagen"
	"asqprl/internal/engine"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

func flightsTable() *table.Table {
	return datagen.Flights(0.01, 3).Table("flights")
}

func fastOpts() Options {
	return Options{Epochs: 10, BatchRows: 500, Seed: 1}
}

func TestTrainVAEAndGenerate(t *testing.T) {
	tab := flightsTable()
	v, err := TrainVAE(tab, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	gen := v.Generate(100)
	if gen.NumRows() != 100 {
		t.Fatalf("generated %d rows", gen.NumRows())
	}
	if gen.Schema.String() != tab.Schema.String() {
		t.Errorf("schema mismatch: %s vs %s", gen.Schema, tab.Schema)
	}
	// Generated categorical values come from the real domain.
	ci := gen.ColumnIndex("carrier")
	valid := map[string]bool{}
	ti := tab.ColumnIndex("carrier")
	for ri := 0; ri < tab.NumRows(); ri++ {
		r := tab.Row(ri)
		valid[r[ti].Str] = true
	}
	for ri := 0; ri < gen.NumRows(); ri++ {
		r := gen.Row(ri)
		if !valid[r[ci].Str] {
			t.Fatalf("generated unseen carrier %q", r[ci].Str)
		}
	}
	// Generated numerics stay in a plausible range (within 5 sigma-ish).
	di := gen.ColumnIndex("distance")
	for ri := 0; ri < gen.NumRows(); ri++ {
		r := gen.Row(ri)
		d := r[di].AsFloat()
		if d < -5000 || d > 50000 {
			t.Fatalf("generated wild distance %v", d)
		}
	}
}

// reconstructionError is the mean squared reconstruction error over the first
// maxRows rows: the training-quality diagnostic of the two tests below.
func reconstructionError(v *VAE, t *table.Table, maxRows int) float64 {
	n := t.NumRows()
	if n == 0 {
		return 0
	}
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	var total float64
	for i := 0; i < n; i++ {
		x := v.encodeRow(t.Row(i))
		mu := v.encoder.Forward(x)[:v.latent]
		xhat := v.decoder.Forward(mu)
		for j := range x {
			d := xhat[j] - x[j]
			total += d * d
		}
	}
	return total / float64(n*v.featDim)
}

func TestVAETrainingReducesReconstructionError(t *testing.T) {
	tab := flightsTable()
	short, err := TrainVAE(tab, Options{Epochs: 1, BatchRows: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	long, err := TrainVAE(tab, Options{Epochs: 25, BatchRows: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	eShort := reconstructionError(short, tab, 200)
	eLong := reconstructionError(long, tab, 200)
	t.Logf("reconstruction error: 1 epoch %.4f, 25 epochs %.4f", eShort, eLong)
	if eLong >= eShort {
		t.Errorf("training should reduce reconstruction error: %.4f -> %.4f", eShort, eLong)
	}
}

func TestVAEEmptyTableErrors(t *testing.T) {
	empty := table.New("e", table.Schema{{Name: "a", Kind: table.KindInt}})
	if _, err := TrainVAE(empty, fastOpts()); err == nil {
		t.Error("empty table should error")
	}
}

func TestGenerateDatabaseProportions(t *testing.T) {
	db := datagen.IMDB(0.01, 3)
	gen, err := GenerateDatabase(db, 300, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	total := gen.TotalRows()
	if total == 0 || total > 330 {
		t.Fatalf("generated %d rows, want <= ~300", total)
	}
	// Proportionality: the biggest table stays the biggest.
	if gen.Table("cast_info").NumRows() < gen.Table("name").NumRows() {
		t.Error("proportions not preserved")
	}
	// All tables exist (even if empty) so queries still parse/execute.
	for _, n := range db.TableNames() {
		if gen.Table(n) == nil {
			t.Errorf("missing table %s", n)
		}
	}
}

// TestGeneratedTuplesFailSelectiveJoins reproduces the paper's core
// observation about generative AQP for non-aggregate queries: synthetic
// tuples rarely satisfy selective filters and joins, so SPJ results over
// generated data are poor (near-zero Figure 2 scores for VAE).
func TestGeneratedTuplesFailSelectiveJoins(t *testing.T) {
	db := datagen.IMDB(0.02, 3)
	gen, err := GenerateDatabase(db, 500, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// A join query: generated ids almost never match across tables.
	q := "SELECT t.title FROM title t JOIN cast_info c ON t.id = c.title_id WHERE t.genre = 'drama'"
	full, err := engine.Execute(db, sqlparse.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	genRes, err := engine.Execute(gen, sqlparse.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	if full.Table.NumRows() == 0 {
		t.Skip("degenerate dataset")
	}
	ratio := float64(genRes.Table.NumRows()) / float64(full.Table.NumRows())
	t.Logf("join rows: generated %d vs real %d", genRes.Table.NumRows(), full.Table.NumRows())
	if ratio > 0.5 {
		t.Errorf("generated data satisfies joins suspiciously well (ratio %.2f)", ratio)
	}
}

func TestVAEDeterministicGivenSeed(t *testing.T) {
	tab := flightsTable()
	g1, err := TrainVAE(tab, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := TrainVAE(tab, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	a, b := g1.Generate(10), g2.Generate(10)
	for i := 0; i < a.NumRows(); i++ {
		if a.Row(i).Key() != b.Row(i).Key() {
			t.Fatal("same seed should generate identical tuples")
		}
	}
}

func TestReconstructionErrorFinite(t *testing.T) {
	tab := flightsTable()
	v, err := TrainVAE(tab, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if e := reconstructionError(v, tab, 100); math.IsNaN(e) || math.IsInf(e, 0) {
		t.Errorf("reconstruction error not finite: %v", e)
	}
}
