package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/datagen"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// corpus is the fixed database and training workload, written as files so
// that the program under test only ever sees files and requests. It is cached
// under bench/out/cache and rebuilt when absent.
type corpus struct {
	dir      string
	dataDir  string
	trainSQL string
}

// ensureCorpus generates IMDB(scale, corpusSeed) as CSVs plus an n-statement
// training workload as a .sql file, unless the cache already holds them. The
// files are written to a temporary directory and renamed into place so an
// interrupted run never leaves half a corpus behind.
func ensureCorpus(outDir string, scale float64, n int) (*corpus, error) {
	dir := filepath.Join(outDir, "cache", fmt.Sprintf("imdb-x%g-q%d-s%d", scale, n, corpusSeed))
	c := &corpus{dir: dir, dataDir: filepath.Join(dir, "data"), trainSQL: filepath.Join(dir, "train.sql")}
	if _, err := os.Stat(c.trainSQL); err == nil {
		return c, nil
	}
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), "corpus-tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	db := datagen.IMDB(scale, corpusSeed)
	if err := os.Mkdir(filepath.Join(tmp, "data"), 0o755); err != nil {
		return nil, err
	}
	for _, t := range db.Tables() {
		if err := writeCSV(filepath.Join(tmp, "data", t.Name+".csv"), t); err != nil {
			return nil, err
		}
	}
	w, err := core.GenerateWorkload(db, core.GenOptions{N: n, AggregateProb: aggProb, Seed: corpusSeed})
	if err != nil {
		return nil, fmt.Errorf("generate training workload: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "train.sql"), []byte(strings.Join(w.SQLs(), "\n")+"\n"), 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		// A concurrent run won the rename; its corpus is identical.
		if _, serr := os.Stat(c.trainSQL); serr == nil {
			return c, nil
		}
		return nil, err
	}
	return c, nil
}

func writeCSV(path string, t *table.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := t.WriteCSV(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadDB reads the corpus CSVs back, in the same sorted order asqp-serve's
// -data loader uses, so both sides hold identical databases. It returns the
// time spent parsing.
func (c *corpus) loadDB() (*table.Database, time.Duration, error) {
	paths, err := filepath.Glob(filepath.Join(c.dataDir, "*.csv"))
	if err != nil {
		return nil, 0, err
	}
	if len(paths) == 0 {
		return nil, 0, fmt.Errorf("no CSV files in %s", c.dataDir)
	}
	sort.Strings(paths)
	start := time.Now()
	db := table.NewDatabase()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, 0, err
		}
		t, err := table.ReadCSV(strings.TrimSuffix(filepath.Base(p), ".csv"), bufio.NewReader(f))
		f.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", p, err)
		}
		db.Add(t)
	}
	return db, time.Since(start), nil
}

// loadTrainingWorkload parses the corpus's .sql file the way asqp-serve's
// -workload loader does.
func (c *corpus) loadTrainingWorkload() (workload.Workload, error) {
	data, err := os.ReadFile(c.trainSQL)
	if err != nil {
		return nil, err
	}
	var sqls []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			sqls = append(sqls, line)
		}
	}
	return workload.New(sqls...)
}

// snapshotPath names the trained-system snapshot the serving workloads boot
// from. Training (tens of seconds) is the train_pipeline workload's subject;
// the serving workloads take the trained system as an input, built once per
// server binary by the server itself.
func (c *corpus) snapshotPath(k int) string {
	return filepath.Join(c.dir, fmt.Sprintf("snap-k%d.bin", k))
}

// ensureSnapshot has the server child train on the corpus and -save the
// snapshot, unless a snapshot written by this very binary is already cached.
func ensureSnapshot(c *corpus, serverBin string, k int, logPath string) error {
	sum, err := fileSHA256(serverBin)
	if err != nil {
		return err
	}
	snap := c.snapshotPath(k)
	stamp := snap + ".built-by"
	if prev, err := os.ReadFile(stamp); err == nil && string(prev) == sum {
		if _, err := os.Stat(snap); err == nil {
			return nil
		}
	}
	fmt.Fprintf(os.Stderr, "bench: training the serving snapshot once for this binary (cached in %s)\n", c.dir)
	os.Remove(stamp)
	ch, err := startChild(serverBin, []string{
		"-data", c.dataDir, "-workload", c.trainSQL,
		"-k", fmt.Sprint(k), "-f", fmt.Sprint(frameF), "-seed", fmt.Sprint(corpusSeed),
		"-save", snap, "-log", "off",
	}, logPath)
	if err != nil {
		return err
	}
	defer ch.stop()
	if _, err := ch.waitReady(10 * time.Minute); err != nil {
		return fmt.Errorf("snapshot build: %w", err)
	}
	if err := ch.stop(); err != nil {
		return fmt.Errorf("snapshot build: %w", err)
	}
	return os.WriteFile(stamp, []byte(sum), 0o644)
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
