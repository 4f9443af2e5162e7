package table_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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

// BenchmarkReadCSVDir is the same corpus as BenchmarkLoadCSV, written once as
// a directory of files and loaded the way -data loads it: the files
// concurrently, at most GOMAXPROCS at a time.
func BenchmarkReadCSVDir(b *testing.B) {
	names, files, cells := imdbCSV(b)
	dir := b.TempDir()
	for f, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), files[f], 0o600); err != nil {
			b.Fatal(err)
		}
	}
	files = nil // not counted in before
	before := heapAlloc()
	var db *table.Database
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if db, err = table.ReadCSVDir(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(heapAlloc()-before)/float64(cells), "B/cell")
	runtime.KeepAlive(db)
}

// TestReadCSVKeepsNoLine: a string new to its column's dictionary is copied
// out of the line encoding/csv read it into, so a loaded table does not pin
// its input: here each row's key is new and 6 bytes long, its line 409.
func TestReadCSVKeepsNoLine(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures under the race detector are not the program's")
	}
	const rows = 20000
	var buf bytes.Buffer
	buf.WriteString("key:string,pad:string\n")
	pad := strings.Repeat("p", 400)
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&buf, "k%05d,%s\n", i, pad)
	}
	before := heapAlloc()
	tbl, err := table.ReadCSV("t", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	perRow := float64(heapAlloc()-before) / rows
	runtime.KeepAlive(tbl)
	runtime.KeepAlive(buf.Bytes()) // counted in before
	t.Logf("%.0f B/row", perRow)
	if perRow > 200 {
		t.Fatalf("%.0f heap bytes per row, want at most 200: the dictionary keeps the lines", perRow)
	}
}

// TestReadCSVAllocatesPerFile: a plain file (no quote, no \r) loads in a
// number of objects that does not grow with its lines — the buffer, the
// vectors, the dictionaries and their strings. A loader that makes even one
// string a line, as encoding/csv does, makes 10 000 here.
func TestReadCSVAllocatesPerFile(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	const rows = 10000
	var buf bytes.Buffer
	buf.WriteString("id:int,name:string,score:float,ok:bool\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&buf, "%d,name%02d,%g,%t\n", i, i%50, float64(i)/8, i%3 == 0)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := table.ReadCSV("t", bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for %d rows", allocs, rows)
	if allocs > 300 {
		t.Fatalf("%.0f allocations for %d rows, want at most 300", allocs, rows)
	}
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
