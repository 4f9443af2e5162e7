package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"asqprl/internal/core"
	"asqprl/internal/engine"
	"asqprl/internal/obs"
	"asqprl/internal/table"
)

// jsonRows and oracleAnswer are the /query encoder this package shipped before
// appendAnswer — result cells boxed into [][]any and the whole response handed
// to encoding/json — kept as the reference the append encoder must match byte
// for byte.
func jsonRows(t *table.RowSet) [][]any {
	rows := make([][]any, len(t.Rows))
	for i, r := range t.Rows {
		out := make([]any, len(r))
		for j, v := range r {
			switch v.Kind {
			case table.KindInt:
				out[j] = v.Int
			case table.KindFloat:
				if !math.IsNaN(v.Float) && !math.IsInf(v.Float, 0) {
					out[j] = v.Float
				}
			case table.KindString:
				out[j] = v.Str
			case table.KindBool:
				out[j] = v.Bool
			default:
				out[j] = nil
			}
		}
		rows[i] = out
	}
	return rows
}

func oracleAnswer(r QueryResponse, f *engine.Frame) ([]byte, error) {
	t := f.Table()
	r.Columns, r.Rows, r.RowCount = t.Schema.Names(), jsonRows(t), t.NumRows()
	return json.Marshal(&r)
}

// checkAnswer asserts appendAnswer and the oracle agree on r and f: the same
// bytes, or both an error.
func checkAnswer(t *testing.T, r QueryResponse, f *engine.Frame) {
	t.Helper()
	want, wantErr := oracleAnswer(r, f)
	got, gotErr := appendAnswer([]byte("kept"), &r, f)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("encoding/json error %v, appendAnswer error %v for %+v", wantErr, gotErr, r)
	}
	if wantErr != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte("kept")) {
		t.Fatalf("appendAnswer overwrote its destination prefix: %q", got[:4])
	}
	if got = got[4:]; !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-60)
		t.Fatalf("encoders diverge at byte %d\nencoding/json: …%s\nappendAnswer:  …%s",
			i, want[lo:min(len(want), i+60)], got[lo:min(len(got), i+60)])
	}
}

// trickyStrings cover every branch of encoding/json's string escaping.
var trickyStrings = []string{
	"", "plain", `quote " backslash \ slash /`, "tab\tnl\ncr\rbs\bff\f", "ctl\x00\x01\x1f del\x7f",
	"html <b>&amp;</b>", "sep\u2028and\u2029", "bad\xffutf8\xc3", "trunc\xe2\x80", "é ü 漢字 🙂", "\xed\xa0\x80 surrogate",
}

// trickyFloats cover every format encoding/json picks for a float64.
var trickyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e20, 1e21, 1.5e21, -1e21, 1e-6, 1e-7, 9.999e-7, 1e-9, 1e-10, 1e100, 1e-100,
	5e-324, math.MaxFloat64, 123456789.125, 1.0 / 3, math.NaN(), math.Inf(1), math.Inf(-1),
	1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 2, 1e15, 4096,
}

// randomCell draws a cell a column of the given kind can hold: a value of that
// kind, or one time in six NULL.
func randomCell(rng *rand.Rand, kind table.Kind) table.Value {
	switch pick := rng.Intn(6); {
	case pick == 0:
		return table.Null
	case kind == table.KindInt && pick < 3:
		return table.NewInt(rng.Int63() - rng.Int63())
	case kind == table.KindInt:
		return table.NewInt(int64(rng.Intn(7)) - 3)
	case kind == table.KindFloat && pick < 3:
		return table.NewFloat(trickyFloats[rng.Intn(len(trickyFloats))])
	case kind == table.KindFloat:
		return table.NewFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
	case kind == table.KindString && pick < 3:
		return table.NewString(trickyStrings[rng.Intn(len(trickyStrings))])
	case kind == table.KindString:
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return table.NewString(string(b))
	}
	return table.NewBool(rng.Intn(2) == 0)
}

// randomValue draws a cell of any kind, as an answer's own rows and a literal
// may hold whatever an expression evaluated to.
func randomValue(rng *rand.Rand) table.Value {
	if rng.Intn(9) == 0 {
		return table.Value{Kind: table.Kind(200)} // no such kind: null, like NULL
	}
	return randomCell(rng, table.KindInt+table.Kind(rng.Intn(4)))
}

// randomFrame builds a frame the way the engine's tails do: a few base
// relations of random typed columns, output columns that read their vectors
// through shared row-id vectors or in place, output columns over the answer's
// own rows (of any kinds), and literals — and an N that may stop short of the
// vectors (LIMIT) or be zero. About one frame in eight spans several of the
// encoder's morsels and a remainder, over relations that carry every kind.
func randomFrame(rng *rand.Rand) *engine.Frame {
	n := rng.Intn(6)
	if rng.Intn(4) == 0 {
		n = 40 + rng.Intn(40)
	}
	wide := rng.Intn(8) == 0
	if wide {
		n = answerMorsel*(1+rng.Intn(3)) + 1 + rng.Intn(answerMorsel-1)
	}
	type rel struct {
		cols []table.ColumnData
		sel  []int32
	}
	rels := make([]rel, 1+rng.Intn(3))
	for r := range rels {
		schema := make(table.Schema, 1+rng.Intn(5))
		if wide {
			schema = make(table.Schema, 4+rng.Intn(2))
		}
		for j := range schema {
			kind := table.KindInt + table.Kind(rng.Intn(4))
			if wide && j < 4 {
				kind = table.KindInt + table.Kind(j)
			}
			schema[j] = table.Column{Name: fmt.Sprintf("c%d", j), Kind: kind}
		}
		tbl := table.New("rel", schema)
		row := make(table.Row, len(schema))
		rows := n + 1 + rng.Intn(5)
		for i := 0; i < rows; i++ {
			for j := range row {
				row[j] = randomCell(rng, schema[j].Kind)
			}
			tbl.AppendRow(row)
		}
		rels[r].cols = tbl.Columns().Cols
		if rng.Intn(3) > 0 { // else: the vectors read in place
			rels[r].sel = make([]int32, n+rng.Intn(4))
			for i := range rels[r].sel {
				rels[r].sel[i] = int32(rng.Intn(rows))
			}
		}
	}
	own := make([]table.Row, n+rng.Intn(3))
	for i := range own {
		own[i] = make(table.Row, 3)
		for j := range own[i] {
			own[i][j] = randomValue(rng)
		}
	}
	f := &engine.Frame{N: n}
	if rng.Intn(5) == 0 || wide && rng.Intn(2) == 0 {
		f.N = rng.Intn(n + 1) // LIMIT cut the frame short of its vectors
	}
	for c := 1 + rng.Intn(6); c > 0; c-- {
		name := trickyStrings[rng.Intn(len(trickyStrings))]
		f.Schema = append(f.Schema, table.Column{Name: fmt.Sprintf("%s%d", name, c)})
		switch rng.Intn(6) {
		case 0:
			f.Cols = append(f.Cols, engine.FrameCol{Lit: randomValue(rng)})
		case 1:
			f.Cols = append(f.Cols, engine.FrameCol{Rows: own, Col: rng.Intn(3)})
		default:
			r := rels[rng.Intn(len(rels))]
			f.Cols = append(f.Cols, engine.FrameCol{Data: &r.cols[rng.Intn(len(r.cols))], Sel: r.sel})
		}
	}
	return f
}

func randomResponse(rng *rand.Rand) QueryResponse {
	str := func() string {
		if rng.Intn(3) == 0 {
			return ""
		}
		return trickyStrings[rng.Intn(len(trickyStrings))]
	}
	num := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.Float64()
		}
		return trickyFloats[rng.Intn(len(trickyFloats))]
	}
	r := QueryResponse{
		Source: str(), Degraded: rng.Intn(2) == 0, DegradedReason: str(),
		PredictedScore: num(), Confidence: num(), ElapsedMs: num(),
		Error: str(), TraceID: str(), Generation: int64(rng.Intn(3)) - 1,
	}
	if rng.Intn(2) == 0 {
		oe := num()
		r.ObservedError = &oe
	}
	return r
}

// TestEncodeAnswerMatchesEncodingJSON is the encoder's property test: over
// random frames and response headers appendAnswer writes exactly the bytes of
// the reflection encoder it replaced.
func TestEncodeAnswerMatchesEncodingJSON(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkAnswer(t, randomResponse(rng), randomFrame(rng))
	}
	// Every tricky string and float, in every position that takes one.
	for _, s := range trickyStrings {
		for _, v := range trickyFloats {
			rows := []table.Row{{table.NewString(s), table.NewFloat(v)}}
			tbl := table.New("rel", table.Schema{{Name: "s", Kind: table.KindString}, {Name: "v", Kind: table.KindFloat}})
			tbl.AppendRow(rows[0])
			cols := tbl.Columns().Cols
			f := &engine.Frame{
				Schema: table.Schema{{Name: s}, {Name: "v"}, {Name: "own"}, {Name: "lit"}}, N: 1,
				Cols: []engine.FrameCol{{Data: &cols[0]}, {Data: &cols[1], Sel: []int32{0, 0}}, {Rows: rows, Col: 1}, {Lit: table.NewFloat(v)}},
			}
			checkAnswer(t, QueryResponse{Source: s, DegradedReason: s, Error: s, TraceID: s, ElapsedMs: 0.25}, f)
			checkAnswer(t, QueryResponse{PredictedScore: v}, f)
			checkAnswer(t, QueryResponse{Confidence: v}, f)
			checkAnswer(t, QueryResponse{ElapsedMs: v}, f)
			checkAnswer(t, QueryResponse{ObservedError: &v}, f)
		}
	}
	// No rows, and no columns either: both keys are omitted.
	checkAnswer(t, QueryResponse{Source: "full"}, &engine.Frame{Schema: table.Schema{{Name: "id"}}, Cols: []engine.FrameCol{{}}})
	checkAnswer(t, QueryResponse{Source: "full"}, &engine.Frame{})
}

// FuzzEncodeQueryResponse drives the same comparison from fuzzed strings,
// floats and ints placed in cells, literals, column names and header fields,
// next to a seeded random frame.
func FuzzEncodeQueryResponse(f *testing.F) {
	for i, s := range trickyStrings {
		f.Add(int64(i), s, trickyFloats[i%len(trickyFloats)], int64(i)-3)
	}
	f.Add(int64(99), "\xf0\x9f\x99", 1e21, int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, seed int64, s string, v float64, n int64) {
		rng := rand.New(rand.NewSource(seed))
		fr := randomFrame(rng)
		cells := table.Row{table.NewString(s), table.NewFloat(v), table.NewInt(n), table.Null}
		tbl := table.New("rel", table.Schema{{Name: "s", Kind: table.KindString}, {Name: "v", Kind: table.KindFloat}, {Name: "n", Kind: table.KindInt}, {Name: "null", Kind: table.KindBool}})
		rows := make([]table.Row, fr.N+1)
		for i := range rows {
			rows[i] = cells
			tbl.AppendRow(cells)
		}
		for j, c := range cells {
			fr.Schema = append(fr.Schema, table.Column{Name: s}, table.Column{Name: "own"}, table.Column{Name: "lit"})
			fr.Cols = append(fr.Cols, engine.FrameCol{Data: &tbl.Columns().Cols[j]}, engine.FrameCol{Rows: rows, Col: j}, engine.FrameCol{Lit: c})
		}
		r := randomResponse(rng)
		switch rng.Intn(4) {
		case 0:
			r.Source, r.Error, r.Generation = s, s, n
		case 1:
			r.PredictedScore, r.ObservedError = v, &v
		case 2:
			r.Confidence, r.DegradedReason, r.TraceID = v, s, s
		}
		checkAnswer(t, r, fr)
	})
}

// TestQueryAnswersMatchOracleEndToEnd sends real statements — frames straight
// off the join, LIMIT-shortened ones, and every kind that materializes first —
// through the handler and compares each body with the oracle's encoding of the
// same statement's table.
func TestQueryAnswersMatchOracleEndToEnd(t *testing.T) {
	sys := trainedSystem(t)
	h := New(sys, Config{}).Handler()
	for _, sql := range []string{
		approxRouteSQL,
		approxRouteSQL + " LIMIT 5",
		"SELECT * FROM title WHERE rating > 100",
		"SELECT id, 'lit', 1.5, NULL, rating FROM title WHERE rating > 8 LIMIT 3",
		"SELECT rating * 2, id FROM title LIMIT 4",
		"SELECT DISTINCT kind FROM title",
		"SELECT title, rating FROM title ORDER BY rating DESC, id LIMIT 7",
		"SELECT kind, COUNT(*), AVG(rating) FROM title GROUP BY kind",
		"SELECT t.title, c.role, n.name FROM name n JOIN cast_info c ON n.id = c.name_id JOIN title t ON t.id = c.title_id LIMIT 40",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?q="+strings.ReplaceAll(sql, " ", "+"), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d %s", sql, rec.Code, rec.Body)
		}
		var got QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		db := sys.DB()
		if got.Source == "approximation" {
			db = sys.SetDB()
		}
		res, err := engine.ExecuteWith(db, mustParse(t, sql), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The header is the response's own (elapsed_ms differs per request);
		// columns, rows and row_count are re-encoded by the oracle.
		hdr := got
		hdr.Columns, hdr.Rows, hdr.RowCount = res.Table.Schema.Names(), jsonRows(res.Table), res.Table.NumRows()
		want, err := json.Marshal(&hdr)
		if err != nil {
			t.Fatal(err)
		}
		if body := bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")); !bytes.Equal(body, want) {
			t.Errorf("%s:\nhandler: %.300s\noracle:  %.300s", sql, body, want)
		}
	}
}

// TestAnswerAllocatesNothingPerRow: a warm request's allocations do not grow
// with the rows it answers — a 50-row page off the approximation set and a
// join some two hundred times wider differ by the few dozen objects that grow
// with the logarithm of a result (join vectors, the response recorder), not by
// objects per row. Both run the ladder and the encoder every time: the answer
// cache would serve the repeated page without either.
func TestAnswerAllocatesNothingPerRow(t *testing.T) {
	sys := trainedSystem(t)
	h := New(sys, Config{noAnswerCache: true}).Handler()
	allocs := func(sql string) (perRun float64, rows int) {
		body := []byte(fmt.Sprintf(`{"sql": %q}`, sql))
		serve := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
			return rec
		}
		rec := serve() // also warms the join indexes and the buffer pool
		var resp QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d, %v", sql, rec.Code, err)
		}
		return testing.AllocsPerRun(20, func() { serve() }), resp.RowCount
	}
	page, pageRows := allocs(approxRouteSQL + " LIMIT 50")
	wide, wideRows := allocs("SELECT * FROM title a JOIN title b ON a.kind = b.kind WHERE a.id < 70")
	if pageRows == 0 || wideRows < 10_000 {
		t.Fatalf("fixture too small: page %d rows, wide join %d rows", pageRows, wideRows)
	}
	t.Logf("page: %d rows, %.0f allocs; wide join: %d rows, %.0f allocs", pageRows, page, wideRows, wide)
	if wide-page > 100 {
		t.Errorf("wide join of %d rows allocates %.0f objects, a %d-row page %.0f: allocation grows with rows", wideRows, wide, pageRows, page)
	}
}

// TestWideAnswerDeclaresItsLength: a body of any size goes out with its
// Content-Length and in one piece, never with chunked transfer encoding (which
// net/http picks for a body past its buffer when no length is declared).
func TestWideAnswerDeclaresItsLength(t *testing.T) {
	ts := httptest.NewServer(New(trainedSystem(t), Config{}).Handler())
	defer ts.Close()
	res, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"sql": "SELECT * FROM title a JOIN title b ON a.kind = b.kind WHERE a.id < 70"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil || res.StatusCode != http.StatusOK || resp.RowCount < 10_000 {
		t.Fatalf("HTTP %d, %d rows, %v: fixture too small or request failed", res.StatusCode, resp.RowCount, err)
	}
	if res.ContentLength != int64(len(body)) || len(res.TransferEncoding) > 0 {
		t.Errorf("%d-byte body arrived with Content-Length %d, Transfer-Encoding %v", len(body), res.ContentLength, res.TransferEncoding)
	}
}

// TestTracedLadderBuildsNoNames: asqp-serve always traces, so what the ladder
// adds to the engine call it wraps is paid per request: its spans, its contexts,
// its result and the estimator's query embedding — 6 objects on either rung —
// and no name built on the way (the route annotation and the rung's span name
// are constants; a map lookup boxed and a concatenation were two objects more;
// the estimator's token strings and a span's attribute map were six more; the
// scores boxed and the statement's String method value, three more).
func TestTracedLadderBuildsNoNames(t *testing.T) {
	sys := trainedSystem(t)
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(wasEnabled)
	traced := func(f func(ctx context.Context) error) float64 {
		run := func() {
			ctx, root := obs.StartSpan(context.Background(), "test/root")
			if err := f(ctx); err != nil {
				t.Fatal(err)
			}
			root.End()
		}
		run() // warm
		return testing.AllocsPerRun(50, run)
	}
	rungs := map[bool]int{}
	for _, sql := range []string{approxRouteSQL + " LIMIT 50", "SELECT * FROM cast_info WHERE id BETWEEN 10 AND 20"} {
		stmt, db := mustParse(t, sql), sys.DB()
		ladder := traced(func(ctx context.Context) error {
			res, err := sys.QueryFrameContext(ctx, stmt, core.QueryOptions{})
			if err == nil && res.FromApproximation {
				db = sys.SetDB()
			}
			return err
		})
		full := db == sys.DB()
		rungs[full]++
		eng := traced(func(ctx context.Context) error {
			_, err := engine.ExecuteFrameContext(ctx, db, stmt, engine.Options{})
			return err
		})
		const want = 6.0
		if own := ladder - eng; own > want {
			t.Errorf("%s: the ladder allocates %.0f objects around an engine call of %.0f, want at most %.0f", sql, own, eng, want)
		}
	}
	if len(rungs) != 2 {
		t.Fatalf("statements per rung (full: true) %v: fixture reaches one rung only", rungs)
	}
}
