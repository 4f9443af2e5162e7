package server

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"asqprl/internal/engine"
	"asqprl/internal/table"
)

// answerBufs recycles the buffers /query answers are encoded into. One larger
// than maxPooledAnswer (a wide join's answer) is left to the collector rather
// than kept warm for the small answers that make up nearly all traffic.
var answerBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledAnswer = 4 << 20

// answerMorsel is how many output rows appendAnswer gathers before it formats
// them: enough that a morsel's random loads overlap, few enough that its
// scratch stays in cache.
const answerMorsel = 256

// answerScratch holds one morsel's gathered cells, column j's at
// [j*stride, j*stride+stride) of each vector: an int cell, a float cell's
// bits or a bool as 0/1 in words, a string cell's header in strs, and the
// null bit in nulls (written only for columns that have NULLs). Typed, so
// gathering boxes nothing.
type answerScratch struct {
	words []uint64
	strs  []string
	nulls []bool
	ids   []int32 // a column read in place: its row ids, lo..lo+n-1
}

var answerScratches = sync.Pool{New: func() any { return new(answerScratch) }}

// appendAnswer appends the JSON body of a successful /query response: its head
// (appendAnswerHead), then its tail (appendAnswerTail). The head is written
// straight from the engine's frame without boxing the cells of a relation's
// column, so a response costs no allocation per row or cell. The rows go out
// a morsel at a time in two passes: gather copies each column's cells of the
// morsel into dense typed scratch (one loop per column, its loads independent
// of one another), then one loop formats the morsel row by row from that
// scratch; a column over the answer's own rows or a literal is formatted from
// its boxed cell. r supplies the scalar fields (its Columns, Rows and RowCount
// are not read). The bytes are exactly what encoding/json produced for a
// QueryResponse whose Rows held the same cells as [][]any — field order,
// omitempty, number formats, string escaping — which the encoder tests hold it
// to. NaN and ±Inf cells, which the engine supports and JSON does not, become
// null; a non-finite scalar field is an error, as it is for encoding/json.
func appendAnswer(dst []byte, r *QueryResponse, f *engine.Frame) ([]byte, error) {
	dst, err := appendAnswerHead(dst, r, f)
	dst, tailErr := appendAnswerTail(dst, r)
	return dst, cmp.Or(err, tailErr)
}

// appendAnswerHead appends an answer's body from its opening brace through
// confidence: what the answering generation, the statement and the row cap
// decide, and so what the answer cache keeps.
func appendAnswerHead(dst []byte, r *QueryResponse, f *engine.Frame) ([]byte, error) {
	dst = append(dst, '{')
	if len(f.Schema) > 0 {
		dst = append(dst, `"columns":[`...)
		for j, c := range f.Schema {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, c.Name)
		}
		dst = append(dst, `],`...)
	}
	if f.N > 0 {
		dst = append(dst, `"rows":[`...)
		s := answerScratches.Get().(*answerScratch)
		stride := min(f.N, answerMorsel)
		if cells := stride * len(f.Cols); len(s.words) < cells {
			s.words, s.strs, s.nulls = make([]uint64, cells), make([]string, cells), make([]bool, cells)
		}
		for lo := 0; lo < f.N; lo += stride {
			n := min(stride, f.N-lo)
			for j := range f.Cols {
				s.gather(&f.Cols[j], j*stride, lo, n)
			}
			dst = s.format(dst, f.Cols, stride, lo, n)
		}
		answerScratches.Put(s)
		dst = append(dst, `],`...)
	}
	dst = strconv.AppendInt(append(dst, `"row_count":`...), int64(f.N), 10)
	if r.Source != "" {
		dst = appendJSONString(append(dst, `,"source":`...), r.Source)
	}
	if r.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if r.DegradedReason != "" {
		dst = appendJSONString(append(dst, `,"degraded_reason":`...), r.DegradedReason)
	}
	var bad error
	if r.PredictedScore != 0 {
		dst = appendNum(dst, `,"predicted_score":`, r.PredictedScore, &bad)
	}
	if r.Confidence != 0 {
		dst = appendNum(dst, `,"confidence":`, r.Confidence, &bad)
	}
	return dst, bad
}

// appendAnswerTail appends the rest of an answer's body after its head: what
// each request sets on its own, from elapsed_ms to the closing brace.
func appendAnswerTail(dst []byte, r *QueryResponse) ([]byte, error) {
	var bad error
	dst = appendNum(dst, `,"elapsed_ms":`, r.ElapsedMs, &bad)
	if r.Error != "" {
		dst = appendJSONString(append(dst, `,"error":`...), r.Error)
	}
	if r.TraceID != "" {
		dst = appendJSONString(append(dst, `,"trace_id":`...), r.TraceID)
	}
	if r.ObservedError != nil {
		dst = appendNum(dst, `,"observed_error":`, *r.ObservedError, &bad)
	}
	if r.Generation != 0 {
		dst = strconv.AppendInt(append(dst, `,"generation":`...), r.Generation, 10)
	}
	return append(dst, '}'), bad
}

// appendNum appends key and v, or records in *bad the first value JSON cannot
// carry.
func appendNum(dst []byte, key string, v float64, bad *error) []byte {
	dst, ok := appendJSONFloat(append(dst, key...), v)
	if !ok && *bad == nil {
		*bad = fmt.Errorf("json: unsupported value: %v", v)
	}
	return dst
}

// gather copies cells lo..lo+n-1 of frame column c into the scratch from off
// on. A column over the answer's own rows or a literal has nothing to gather.
func (s *answerScratch) gather(c *engine.FrameCol, off, lo, n int) {
	d := c.Data
	if d == nil {
		return
	}
	var rows []int32
	if c.Sel != nil {
		rows = c.Sel[lo : lo+n]
	} else {
		if cap(s.ids) < n {
			s.ids = make([]int32, answerMorsel)
		}
		rows = s.ids[:n]
		for k := range rows {
			rows[k] = int32(lo + k)
		}
	}
	words := s.words[off : off+n]
	switch d.Kind {
	case table.KindInt:
		for k, r := range rows {
			words[k] = uint64(d.Ints[r])
		}
	case table.KindFloat:
		for k, r := range rows {
			words[k] = math.Float64bits(d.Floats[r])
		}
	case table.KindBool:
		for k, r := range rows {
			words[k] = 0
			if d.Bools[r] {
				words[k] = 1
			}
		}
	case table.KindString:
		strs := s.strs[off : off+n]
		for k, r := range rows {
			if code := d.Codes[r]; code >= 0 { // -1 at a NULL cell
				strs[k] = d.Dict.Strs[code]
			}
		}
	}
	if d.Nulls != nil {
		nulls := s.nulls[off : off+n]
		for k, r := range rows {
			nulls[k] = d.Nulls.Get(int(r))
		}
	}
}

// format appends output rows lo..lo+n-1, reading column j's gathered cells
// from j*stride on.
func (s *answerScratch) format(dst []byte, cols []engine.FrameCol, stride, lo, n int) []byte {
	for k := 0; k < n; k++ {
		if lo+k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j := range cols {
			if j > 0 {
				dst = append(dst, ',')
			}
			c, at := &cols[j], j*stride+k
			switch {
			case c.Data == nil:
				dst = appendCell(dst, c.Cell(lo+k))
			case c.Data.Nulls != nil && s.nulls[at]:
				dst = append(dst, "null"...)
			case c.Data.Kind == table.KindInt:
				dst = strconv.AppendInt(dst, int64(s.words[at]), 10)
			case c.Data.Kind == table.KindFloat:
				dst = appendFloatCell(dst, math.Float64frombits(s.words[at]))
			case c.Data.Kind == table.KindString:
				dst = appendJSONString(dst, s.strs[at])
			case c.Data.Kind == table.KindBool:
				dst = strconv.AppendBool(dst, s.words[at] != 0)
			default:
				dst = append(dst, "null"...)
			}
		}
		dst = append(dst, ']')
	}
	return dst
}

// appendCell appends one result cell as a JSON-native value (null, number,
// string, bool), so clients do not need the repo's Value encoding.
func appendCell(dst []byte, v table.Value) []byte {
	switch v.Kind {
	case table.KindInt:
		return strconv.AppendInt(dst, v.Int, 10)
	case table.KindFloat:
		return appendFloatCell(dst, v.Float)
	case table.KindString:
		return appendJSONString(dst, v.Str)
	case table.KindBool:
		return strconv.AppendBool(dst, v.Bool)
	}
	return append(dst, "null"...)
}

// appendFloatCell appends a float cell: null where JSON has no number for it.
func appendFloatCell(dst []byte, f float64) []byte {
	if out, ok := appendJSONFloat(dst, f); ok {
		return out
	}
	return append(dst, "null"...)
}

// appendJSONFloat appends f as encoding/json writes a float64 (shortest
// round-trip digits; exponent form below 1e-6 and from 1e21, with a one-digit
// exponent unpadded), or reports false for NaN and ±Inf, appending nothing.
// An integer below 2^53 in magnitude, −0 aside, has exactly its own digits as
// its shortest round-trip form, so it is written as an int.
func appendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	abs := math.Abs(f)
	if i := int64(f); abs < 1<<53 && float64(i) == f && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, i, 10), true
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 -> e-9
		dst = dst[:n-1]
	}
	return dst, true
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes a JSON string carries as they are.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

// appendJSONString appends s quoted and escaped as encoding/json does with
// its default HTML escaping: \" \\ \b \f \n \r \t, \u00XX for the other
// control bytes and for < > &, \u2028 and \u2029 for those two separators, and
// \ufffd for each byte of invalid UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf && jsonSafe[b] {
			i++
			continue
		}
		if b >= utf8.RuneSelf {
			c, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case c == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
			case c == '\u2028' || c == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '\\', '"':
			dst = append(dst, '\\', b)
		case '\b', '\t', '\n', '\f', '\r':
			dst = append(dst, '\\', "btn.fr"[b-'\b'])
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
		}
		i++
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
