package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asqprl/internal/engine"
	"asqprl/internal/faults"
	"asqprl/internal/table"
)

// BenchmarkHotSwapUnderLoad measures what a hot swap costs the clients that
// live through it: closed-loop load at exactly admission capacity (so nothing
// is shed structurally), one SetSystem swap halfway through, p99 latency
// reported separately for answers from the pre-swap and post-swap generation.
// The invariant the retrain design promises — zero dropped requests across
// the swap — is asserted, not just measured: any non-200 fails the benchmark.
func BenchmarkHotSwapUnderLoad(b *testing.B) {
	sys := trainedSystem(b)
	cand, err := sys.Clone()
	if err != nil {
		b.Fatal(err)
	}
	faults.Enable(faults.NewSchedule(1, faults.Injection{
		Point:   faults.PointEngineScan,
		Kind:    faults.KindLatency,
		Latency: 5 * time.Millisecond,
	}))
	defer faults.Disable()

	const clients = 8
	srv := New(sys, Config{
		Addr:           "localhost:0",
		MaxInFlight:    clients, // capacity == offered load: no structural shed
		QueueDepth:     clients,
		DefaultTimeout: 2 * time.Second,
		DrainTimeout:   10 * time.Second,
	})
	addr, err := srv.Start()
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	benchClient := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients * 2,
	}}
	defer benchClient.CloseIdleConnections()
	base := "http://" + addr

	var (
		mu        sync.Mutex
		pre, post []time.Duration
		dropped   int
		completed atomic.Int64
		swapped   atomic.Bool
	)
	perClient := b.N/clients + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				status, resp, err := tryPostQueryWith(benchClient, base, approxRouteSQL, 0, 0)
				lat := time.Since(t0)
				if completed.Add(1) >= int64(b.N)/2 && swapped.CompareAndSwap(false, true) {
					srv.SetSystem(cand)
				}
				mu.Lock()
				switch {
				case err != nil || status != http.StatusOK:
					dropped++
				case resp.Generation <= 1:
					pre = append(pre, lat)
				default:
					post = append(post, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	b.StopTimer()

	if dropped > 0 {
		b.Fatalf("%d requests dropped across the hot swap; the swap must be invisible", dropped)
	}
	p99 := func(ls []time.Duration) float64 {
		if len(ls) == 0 {
			return 0
		}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		return float64(ls[len(ls)*99/100].Microseconds()) / 1000
	}
	p99Pre, p99Post := p99(pre), p99(post)
	b.ReportMetric(p99Pre, "p99_pre_ms")
	b.ReportMetric(p99Post, "p99_post_ms")
	if len(pre) > 0 && len(post) > 0 {
		b.ReportMetric(p99Post-p99Pre, "p99_delta_ms")
	}
	b.ReportMetric(float64(dropped), "dropped")
}

// BenchmarkEncodeAnswer measures the /query response encoder on the answers
// that matter, as the engine hands them over (base vectors behind row-id
// vectors): one LIMIT-50 page, a 10 000 × 12 answer over a small base that
// stays in cache, and a join-shaped 10 000 × 10 answer like the bench's wide
// family (movie_info JOIN title): a 50 000-row relation read in order beside a
// 40 000-row one read through random row ids. "append" is appendAnswer into a
// reused buffer, "reflect" the path it replaced (materialize the rows, box them
// into [][]any, json.Marshal), kept as the encoder tests' oracle.
func BenchmarkEncodeAnswer(b *testing.B) {
	for _, c := range []struct {
		name  string
		frame func() *engine.Frame
	}{
		{"page50x7", func() *engine.Frame { return strideFrame(50, 7) }},
		{"wide10000x12", func() *engine.Frame { return strideFrame(10_000, 12) }},
		{"join10000x10", joinFrame},
	} {
		f := c.frame()
		resp := QueryResponse{Source: "full", PredictedScore: 0.25, Confidence: 0.5, ElapsedMs: 1.25, Generation: 1}
		b.Run(c.name+"/append", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf, _ = appendAnswer(buf[:0], &resp, f)
			}
			b.SetBytes(int64(len(buf)))
		})
		b.Run(c.name+"/reflect", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body, err := oracleAnswer(resp, f)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(body)))
			}
		})
	}
}

// strideFrame is rows × cols cells of a 4 096-row base of int, string, float
// and all-NULL columns, read at stride 31.
func strideFrame(rows, cols int) *engine.Frame {
	schema := make(table.Schema, cols)
	for j := range schema {
		schema[j] = table.Column{Name: fmt.Sprintf("col%d", j), Kind: []table.Kind{table.KindInt, table.KindString, table.KindFloat, table.KindBool}[j%4]}
	}
	base := table.New("t", schema)
	row := make(table.Row, cols)
	for i := 0; i < 4096; i++ {
		for j := range row {
			switch j % 4 {
			case 0:
				row[j] = table.NewInt(int64(i * j))
			case 1:
				row[j] = table.NewString(fmt.Sprintf("title %d of a certain length", i))
			case 2:
				row[j] = table.NewFloat(float64(i) / 7)
			default:
				row[j] = table.Null
			}
		}
		base.AppendRow(row)
	}
	f := &engine.Frame{N: rows}
	sel := make([]int32, rows)
	for i := range sel {
		sel[i] = int32(i * 31 % base.NumRows())
	}
	for j := 0; j < cols; j++ {
		f.Schema = append(f.Schema, table.Column{Name: fmt.Sprintf("t.col%d", j)})
		f.Cols = append(f.Cols, engine.FrameCol{Data: &base.Columns().Cols[j], Sel: sel})
	}
	return f
}

// joinFrame is a 10 000-row join answer: movie_info's 50 000 rows (id,
// movie_id, info_type, an integral float value, a note that is mostly NULL)
// read in ascending row order, beside title's 40 000 rows (id, title,
// production_year, rating, kind) read through a seeded random row-id vector.
func joinFrame() *engine.Frame {
	const rows, infoRows, titleRows = 10_000, 50_000, 40_000
	rng := rand.New(rand.NewSource(1))
	info := table.New("movie_info", table.Schema{
		{Name: "id", Kind: table.KindInt}, {Name: "movie_id", Kind: table.KindInt}, {Name: "info_type", Kind: table.KindString},
		{Name: "value", Kind: table.KindFloat}, {Name: "note", Kind: table.KindString},
	})
	for i := 0; i < infoRows; i++ {
		note := table.Null
		if i%7 == 0 {
			note = table.NewString(fmt.Sprintf("note %d", i%500))
		}
		info.AppendRow(table.Row{table.NewInt(int64(i)), table.NewInt(int64(rng.Intn(titleRows))),
			table.NewString([]string{"budget", "runtime", "votes", "gross"}[i%4]), table.NewFloat(float64(rng.Intn(1_000_000))), note})
	}
	title := table.New("title", table.Schema{
		{Name: "id", Kind: table.KindInt}, {Name: "title", Kind: table.KindString}, {Name: "production_year", Kind: table.KindInt},
		{Name: "rating", Kind: table.KindFloat}, {Name: "kind", Kind: table.KindString},
	})
	for i := 0; i < titleRows; i++ {
		title.AppendRow(table.Row{table.NewInt(int64(i)), table.NewString(fmt.Sprintf("title %d of a certain length", i)),
			table.NewInt(int64(1900 + rng.Intn(120))), table.NewFloat(float64(rng.Intn(100)) / 10), table.NewString([]string{"movie", "episode", "short"}[i%3])})
	}
	infoSel, titleSel := make([]int32, rows), make([]int32, rows)
	for i := range infoSel {
		infoSel[i] = int32(i * infoRows / rows)
		titleSel[i] = int32(rng.Intn(titleRows))
	}
	f := &engine.Frame{N: rows}
	for _, side := range []struct {
		t   *table.Table
		sel []int32
	}{{info, infoSel}, {title, titleSel}} {
		for j, col := range side.t.Schema {
			f.Schema = append(f.Schema, table.Column{Name: side.t.Name + "." + col.Name})
			f.Cols = append(f.Cols, engine.FrameCol{Data: &side.t.Columns().Cols[j], Sel: side.sel})
		}
	}
	return f
}
