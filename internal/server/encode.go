package server

import (
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

// appendAnswer appends the JSON body of a successful /query response, written
// straight from the engine's frame: cells are boxed one at a time from where
// they live (a relation's vectors, or the answer's own rows), so a response
// costs no allocation per row or cell. r supplies the scalar fields
// (its Columns, Rows and RowCount are not read). The bytes are exactly what
// encoding/json produced for a QueryResponse whose Rows held the same cells as
// [][]any — field order, omitempty, number formats, string escaping — which
// the encoder tests hold it to. NaN and ±Inf cells, which the engine supports
// and JSON does not, become null; a non-finite scalar field is an error, as it
// is for encoding/json.
func appendAnswer(dst []byte, r *QueryResponse, f *engine.Frame) ([]byte, error) {
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
		for i := 0; i < f.N; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for j := range f.Cols {
				if j > 0 {
					dst = append(dst, ',')
				}
				if c := &f.Cols[j]; c.Data == nil {
					dst = appendCell(dst, c.Cell(i))
				} else if c.Sel != nil {
					dst = appendColumnCell(dst, c.Data, int(c.Sel[i]))
				} else {
					dst = appendColumnCell(dst, c.Data, i)
				}
			}
			dst = append(dst, ']')
		}
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
	num := func(key string, v float64) {
		var ok bool
		if dst, ok = appendJSONFloat(append(dst, key...), v); !ok && bad == nil {
			bad = fmt.Errorf("json: unsupported value: %v", v)
		}
	}
	if r.PredictedScore != 0 {
		num(`,"predicted_score":`, r.PredictedScore)
	}
	if r.Confidence != 0 {
		num(`,"confidence":`, r.Confidence)
	}
	num(`,"elapsed_ms":`, r.ElapsedMs)
	if r.Error != "" {
		dst = appendJSONString(append(dst, `,"error":`...), r.Error)
	}
	if r.TraceID != "" {
		dst = appendJSONString(append(dst, `,"trace_id":`...), r.TraceID)
	}
	if r.ObservedError != nil {
		num(`,"observed_error":`, *r.ObservedError)
	}
	if r.Generation != 0 {
		dst = strconv.AppendInt(append(dst, `,"generation":`...), r.Generation, 10)
	}
	return append(dst, '}'), bad
}

// appendCell appends one result cell as a JSON-native value (null, number,
// string, bool), so clients do not need the repo's Value encoding.
func appendCell(dst []byte, v table.Value) []byte {
	switch v.Kind {
	case table.KindInt:
		return strconv.AppendInt(dst, v.Int, 10)
	case table.KindFloat:
		if out, ok := appendJSONFloat(dst, v.Float); ok {
			return out
		}
	case table.KindString:
		return appendJSONString(dst, v.Str)
	case table.KindBool:
		return strconv.AppendBool(dst, v.Bool)
	}
	return append(dst, "null"...)
}

// appendColumnCell is appendCell for cell i of a relation's column, read from
// its vector without boxing it: most cells of most answers.
func appendColumnCell(dst []byte, c *table.ColumnData, i int) []byte {
	if !c.IsNull(i) {
		switch c.Kind {
		case table.KindInt:
			return strconv.AppendInt(dst, c.Ints[i], 10)
		case table.KindFloat:
			if out, ok := appendJSONFloat(dst, c.Floats[i]); ok {
				return out
			}
		case table.KindString:
			return appendJSONString(dst, c.Dict.Strs[c.Codes[i]])
		case table.KindBool:
			return strconv.AppendBool(dst, c.Bools[i])
		}
	}
	return append(dst, "null"...)
}

// appendJSONFloat appends f as encoding/json writes a float64 (shortest
// round-trip digits; exponent form below 1e-6 and from 1e21, with a one-digit
// exponent unpadded), or reports false for NaN and ±Inf, appending nothing.
func appendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
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
