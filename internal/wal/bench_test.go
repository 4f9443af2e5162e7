package wal

import (
	"fmt"
	"testing"
	"time"
)

// benchRecord is a realistic served-statement frame (~100 B payload).
var benchRecord = Record{
	Type:       TypeServed,
	UnixNs:     1700000000000000000,
	SQL:        "SELECT * FROM title WHERE rating > 7 AND production_year > 1990",
	Confidence: 0.87,
	Source:     "approximation",
}

// BenchmarkWALAppend measures durable append throughput: concurrent appenders
// share fsyncs, so ns/op falls as -cpu rises (DESIGN §14 has the measured
// ratio against an fsync per append).
func BenchmarkWALAppend(b *testing.B) {
	l, _, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := l.Append(benchRecord); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkWALAppendAsync measures the fire-and-forget path the serving hot
// loop uses, saturated: no fsync wait, durability at the group commit the
// first frame after a sync arms.
func BenchmarkWALAppendAsync(b *testing.B) {
	l, _, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := l.AppendAsync(benchRecord); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkWALAppendAsyncPaced paces two appenders at 1 000 async frames/s
// each, the shape of a served-statement stream, and reports how many fsyncs
// the log makes per frame (syncs/frame). BenchmarkWALAppendAsync saturates the
// log, so every fsync carries a large batch there and the per-frame price
// never shows.
func BenchmarkWALAppendAsyncPaced(b *testing.B) {
	l, _, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	const appenders = 2
	per := (b.N + appenders - 1) / appenders
	syncs := countSyncs(b)
	b.ResetTimer()
	pacedAsync(b, l, appenders, per, time.Millisecond)
	b.StopTimer()
	b.ReportMetric(float64(syncs.Load())/float64(appenders*per), "syncs/frame")
}

// BenchmarkRecoveryReplay measures a full startup scan of a 100k-frame log —
// the acceptance bar is well under two seconds. replay_ms is reported per
// Open.
func BenchmarkRecoveryReplay(b *testing.B) {
	const frames = 100_000
	dir := b.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		rec := benchRecord
		rec.SQL = fmt.Sprintf("%s -- %d", benchRecord.SQL, i)
		if err := l.AppendAsync(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l2, rec, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rec.Stats.FramesReplayed != frames {
			b.Fatalf("replayed %d of %d frames (stats %+v)", rec.Stats.FramesReplayed, frames, rec.Stats)
		}
		l2.Close()
	}
	b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(time.Millisecond), "replay_ms")
}
