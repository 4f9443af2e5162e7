// Command asqp-datagen emits the synthetic benchmark datasets as CSV files,
// one file per table, into the chosen directory.
//
// Usage:
//
//	asqp-datagen -dataset imdb -scale 0.1 -out ./data
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"asqprl/internal/datagen"
)

func main() {
	dataset := flag.String("dataset", "imdb", "dataset: imdb, mas or flights")
	scale := flag.Float64("scale", 0.1, "scale factor (1.0 = full synthetic size)")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", ".", "output directory")
	flag.Parse()

	db, err := datagen.ByName(*dataset, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, t := range db.Tables() {
		path := filepath.Join(*out, t.Name+".csv")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", path, t.NumRows())
	}
}
