package table_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"asqprl/internal/datagen"
	"asqprl/internal/table"
)

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestResidentBytesPerCell: a relation is resident once. The typed vectors,
// bitmaps, zones and dictionaries of a generated database cost about 8 bytes a
// cell; boxed rows kept beside them cost another 55.
func TestResidentBytesPerCell(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures under the race detector are not the program's")
	}
	before := heapAlloc()
	db := datagen.IMDB(0.2, 1)
	cells := 0
	for _, tbl := range db.Tables() {
		tbl.Columns()
		cells += tbl.NumRows() * len(tbl.Schema)
	}
	perCell := float64(heapAlloc()-before) / float64(cells)
	runtime.KeepAlive(db)
	t.Logf("%d cells, %.1f B/cell", cells, perCell)
	if perCell > 16 {
		t.Fatalf("%.1f heap bytes per cell, want at most 16", perCell)
	}
}

// TestGeneratedCSVPinned: the bytes datagen.IMDB(0.02, 1) writes as CSV are the
// bytes it wrote before storage changed, so the benchmark's cached corpus and
// every golden downstream of it stay what they were.
func TestGeneratedCSVPinned(t *testing.T) {
	h := sha256.New()
	for _, tbl := range datagen.IMDB(0.02, 1).Tables() {
		fmt.Fprintf(h, "## %s\n", tbl.Name)
		if err := tbl.WriteCSV(h); err != nil {
			t.Fatal(err)
		}
	}
	const want = "36628892c9615cc2e8491ee79af8574b0772f591218e81a7e559f622c26bbb29"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("sha256 of the generated CSV = %s, want %s", got, want)
	}
}

// BenchmarkLoadCSV is the load path of every -data directory and of the
// repository benchmark's corpus: datagen.IMDB(2, 1), 214 000 tuples, read back
// from CSV held in memory. B/cell is the heap the loaded tables keep.
func BenchmarkLoadCSV(b *testing.B) {
	names, files, cells := imdbCSV(b)
	before := heapAlloc()
	var db *table.Database
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db = table.NewDatabase()
		for f, name := range names {
			tbl, err := table.ReadCSV(name, bytes.NewReader(files[f]))
			if err != nil {
				b.Fatal(err)
			}
			tbl.Columns()
			db.Add(tbl)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(heapAlloc()-before)/float64(cells), "B/cell")
	runtime.KeepAlive(db)
	runtime.KeepAlive(files) // counted in before
}

// imdbCSV is datagen.IMDB(2, 1) as CSV, one file per table, and its cell count.
// Its own function so that the generated tables are garbage when it returns.
func imdbCSV(b testing.TB) (names []string, files [][]byte, cells int) {
	for _, tbl := range datagen.IMDB(2, 1).Tables() {
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
		names, files = append(names, tbl.Name), append(files, buf.Bytes())
		cells += tbl.NumRows() * len(tbl.Schema)
	}
	return names, files, cells
}
