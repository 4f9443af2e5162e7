package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one keep-alive HTTP connection to the server child.
type conn struct {
	client *http.Client
	url    string
	buf    []byte
}

func newConn(addr string) *conn {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
	}
	return &conn{
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		url:    "http://" + addr + "/query",
		buf:    make([]byte, 0, 1<<16),
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// reply is what the timed path learns from one response without decoding the
// rows array.
type reply struct {
	status     int
	rows       int
	fromApprox bool
	degraded   bool
	bytes      int
	detail     string // what a non-200 answer said
}

// requester answers one statement: a connection to the server child, or the
// in-process system of train_pipeline.
type requester interface {
	do(st *stmt) (reply, error)
}

// do sends one statement and reads the whole response body into the
// connection's buffer (valid until the next call).
func (c *conn) do(st *stmt) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(st.body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	c.buf, err = readInto(c.buf[:0], resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, bytes: len(c.buf)}
	if r.status != http.StatusOK {
		r.detail = string(tailOf(c.buf, 200))
		return r, nil
	}
	var ok bool
	r.rows, r.fromApprox, r.degraded, ok = parseTail(c.buf)
	if !ok {
		return r, fmt.Errorf("unparseable response tail: %q", tailOf(c.buf, 200))
	}
	return r, nil
}

func readInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func tailOf(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

var (
	keyRowCount = []byte(`"row_count":`)
	keySource   = []byte(`"source":"`)
	keyDegraded = []byte(`"degraded":true`)
	srcApprox   = []byte("approximation")
	srcFull     = []byte("full")
)

// parseTail pulls row_count, source and degraded from the end of a /query
// response. The server encodes columns and rows first and the scalar fields
// after them, so the last 512 bytes hold everything needed; a string cell
// containing these keys cannot match because its quotes arrive escaped.
func parseTail(body []byte) (rows int, fromApprox, degraded, ok bool) {
	tail := tailOf(body, 512)
	i := bytes.LastIndex(tail, keyRowCount)
	if i < 0 {
		return 0, false, false, false
	}
	rest := tail[i+len(keyRowCount):]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	n, err := strconv.Atoi(string(rest[:end]))
	if err != nil {
		return 0, false, false, false
	}
	rest = rest[end:]
	j := bytes.Index(rest, keySource)
	if j < 0 {
		return 0, false, false, false
	}
	src := rest[j+len(keySource):]
	switch {
	case bytes.HasPrefix(src, srcApprox):
		fromApprox = true
	case bytes.HasPrefix(src, srcFull):
	default:
		return 0, false, false, false
	}
	return n, fromApprox, bytes.Contains(rest, keyDegraded), true
}

// record is one request of a load phase, kept for the checks that run after
// the phase (oracle comparison, scoring, per-family shares).
type record struct {
	sample
	st         *stmt
	rows       int
	fromApprox bool
	status     int
	errMsg     string
}

// oneRequest times a single request and classifies it.
func oneRequest(c requester, st *stmt, phaseStart time.Time) record {
	t0 := time.Now()
	r, err := c.do(st)
	t1 := time.Now()
	rec := record{st: st, rows: r.rows, fromApprox: r.fromApprox, status: r.status}
	rec.latency = t1.Sub(t0)
	rec.end = t1.Sub(phaseStart)
	rec.bytes = r.bytes
	switch {
	case err != nil:
		rec.errMsg = err.Error()
	case r.status != http.StatusOK:
		rec.errMsg = fmt.Sprintf("HTTP %d: %s", r.status, r.detail)
	case r.degraded:
		rec.errMsg = "degraded answer"
	default:
		rec.ok = true
	}
	return rec
}

// closedLoop runs every connection flat out for dur: each sends its next
// request as soon as the previous answer is read, the loop an analyst's
// session is. It returns the records of all connections merged.
func closedLoop(conns []requester, streams []*connStream, dur time.Duration) ([]record, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		all      []record
		firstErr error
	)
	start := time.Now()
	for i := range conns {
		wg.Add(1)
		go func(c requester, s *connStream) {
			defer wg.Done()
			recs := make([]record, 0, 1<<14)
			for time.Since(start) < dur {
				st, err := s.next()
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					break
				}
				recs = append(recs, oneRequest(c, st, start))
			}
			mu.Lock()
			all = append(all, recs...)
			mu.Unlock()
		}(conns[i], streams[i])
	}
	wg.Wait()
	return all, firstErr
}

// pacedRecord is one request of the open-loop phase.
type pacedRecord struct {
	latency time.Duration // from the time the request was due
	lag     time.Duration // how late the generator sent it
	ok      bool
}

// pacedLoop sends at a fixed rate over the same connections, whatever the
// server does: request i is due at i/rps, a connection that is free takes the
// next due request and sleeps until its time (or sends at once when already
// late). Latency is counted from the due time, so a stall is charged to every
// request it delayed.
func pacedLoop(conns []requester, streams []*connStream, rps int, dur time.Duration) ([]pacedRecord, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		all      []pacedRecord
		firstErr error
		next     atomic.Int64
	)
	start := time.Now()
	for i := range conns {
		wg.Add(1)
		go func(c requester, s *connStream) {
			defer wg.Done()
			var recs []pacedRecord
			for {
				due := dueTime(int(next.Add(1)-1), rps)
				if due >= dur {
					break
				}
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				st, err := s.next()
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					break
				}
				sent := time.Since(start)
				rec := oneRequest(c, st, start)
				latency, lag := pacedTimes(due, sent, rec.end)
				recs = append(recs, pacedRecord{latency: latency, lag: lag, ok: rec.ok})
			}
			mu.Lock()
			all = append(all, recs...)
			mu.Unlock()
		}(conns[i], streams[i])
	}
	wg.Wait()
	return all, firstErr
}

// wireResponse is the full /query answer, decoded only in the untimed verify
// pass.
type wireResponse struct {
	Columns    []string `json:"columns"`
	Rows       [][]any  `json:"rows"`
	RowCount   int      `json:"row_count"`
	Source     string   `json:"source"`
	Degraded   bool     `json:"degraded"`
	Error      string   `json:"error"`
	Generation int64    `json:"generation"`
}

// verifyOne sends st once and checks the whole decoded response against the
// oracle: status, source, row_count for the rung named in source, the rows
// array's length and width, the column names, and the generation.
func verifyOne(c *conn, st *stmt) error {
	r, err := c.do(st)
	if err != nil {
		return fmt.Errorf("verify %q: %w", st.sql, err)
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("verify %q: HTTP %d: %s", st.sql, r.status, r.detail)
	}
	var w wireResponse
	if err := json.Unmarshal(c.buf, &w); err != nil {
		return fmt.Errorf("verify %q: response is not JSON: %w", st.sql, err)
	}
	if w.Error != "" || w.Degraded {
		return fmt.Errorf("verify %q: error %q degraded %v", st.sql, w.Error, w.Degraded)
	}
	if w.Source != "approximation" && w.Source != "full" {
		return fmt.Errorf("verify %q: source %q", st.sql, w.Source)
	}
	fromApprox := w.Source == "approximation"
	if want := st.expect(fromApprox); w.RowCount != want {
		return fmt.Errorf("verify %q: row_count %d from %s, oracle says %d", st.sql, w.RowCount, w.Source, want)
	}
	if len(w.Rows) != w.RowCount {
		return fmt.Errorf("verify %q: %d rows but row_count %d", st.sql, len(w.Rows), w.RowCount)
	}
	if w.RowCount != r.rows || fromApprox != r.fromApprox {
		return fmt.Errorf("verify %q: tail parse read (%d, approx=%v), full decode (%d, %s)", st.sql, r.rows, r.fromApprox, w.RowCount, w.Source)
	}
	if len(w.Columns) != len(st.columns) {
		return fmt.Errorf("verify %q: columns %v, oracle says %v", st.sql, w.Columns, st.columns)
	}
	for i := range w.Columns {
		if w.Columns[i] != st.columns[i] {
			return fmt.Errorf("verify %q: columns %v, oracle says %v", st.sql, w.Columns, st.columns)
		}
	}
	for i, row := range w.Rows {
		if len(row) != len(w.Columns) {
			return fmt.Errorf("verify %q: row %d has %d cells for %d columns", st.sql, i, len(row), len(w.Columns))
		}
	}
	if w.Generation != 1 {
		return fmt.Errorf("verify %q: generation %d, want 1 (no retraining in a run)", st.sql, w.Generation)
	}
	return nil
}
