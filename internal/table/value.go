package table

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the value types supported by the storage engine.
type Kind uint8

const (
	// KindNull is the kind of the SQL NULL value.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is a UTF-8 string.
	KindString
	// KindBool is a boolean.
	KindBool
)

// String returns the lower-case name of the kind ("int", "float", ...).
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind converts a kind name produced by Kind.String back into a Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "null":
		return KindNull, nil
	case "int", "integer", "int64":
		return KindInt, nil
	case "float", "float64", "double", "real":
		return KindFloat, nil
	case "string", "text", "varchar":
		return KindString, nil
	case "bool", "boolean":
		return KindBool, nil
	default:
		return KindNull, fmt.Errorf("table: unknown kind %q", s)
	}
}

// Value is a single typed cell. The zero Value is NULL.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Str   string
	Bool  bool
}

// Null is the SQL NULL value.
var Null = Value{Kind: KindNull}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{Kind: KindInt, Int: v} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{Kind: KindString, Str: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value { return Value{Kind: KindBool, Bool: v} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// IsNumeric reports whether the value is an int or a float.
func (v Value) IsNumeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// AsFloat converts a numeric or boolean value to float64. NULL and strings
// convert to 0.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.Int)
	case KindFloat:
		return v.Float
	case KindBool:
		if v.Bool {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// String renders the value for display and CSV output. NULL renders as the
// empty string, which ReadCSV maps back to NULL for non-string columns.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return ""
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindString:
		return v.Str
	case KindBool:
		return strconv.FormatBool(v.Bool)
	default:
		return fmt.Sprintf("value(kind=%d)", uint8(v.Kind))
	}
}

// Key returns a string that uniquely identifies the value across kinds; it is
// suitable for use as a map key (hash joins, grouping, Jaccard sets).
func (v Value) Key() string { return string(v.AppendKey(nil)) }

// AppendKey appends the value's key bytes (see Key) to dst and returns the
// extended slice. Hot paths reuse dst across values so keying a row costs no
// allocations once the buffer has grown.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, 0, 'n')
	case KindInt:
		return strconv.AppendInt(append(dst, 0, 'i'), v.Int, 10)
	case KindFloat:
		// Integral floats share keys with ints so joins across int/float
		// columns behave as SQL users expect.
		if v.Float == float64(int64(v.Float)) {
			return strconv.AppendInt(append(dst, 0, 'i'), int64(v.Float), 10)
		}
		return strconv.AppendFloat(append(dst, 0, 'f'), v.Float, 'g', -1, 64)
	case KindString:
		return append(append(dst, 0, 's'), v.Str...)
	case KindBool:
		if v.Bool {
			return append(dst, 0, 'b', '1')
		}
		return append(dst, 0, 'b', '0')
	default:
		return append(dst, 0, '?')
	}
}

// Equal reports SQL equality between two values. NULL never equals anything,
// including NULL. Ints and floats compare numerically.
func (v Value) Equal(o Value) bool {
	if v.Kind == KindNull || o.Kind == KindNull {
		return false
	}
	if v.IsNumeric() && o.IsNumeric() {
		return v.AsFloat() == o.AsFloat()
	}
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindString:
		return v.Str == o.Str
	case KindBool:
		return v.Bool == o.Bool
	default:
		return false
	}
}

// Compare returns -1, 0 or +1 ordering v before, equal to, or after o.
// NULL sorts before every non-NULL value; mixed numeric kinds compare
// numerically; otherwise values of different kinds order by kind.
func (v Value) Compare(o Value) int {
	if v.Kind == KindNull || o.Kind == KindNull {
		switch {
		case v.Kind == o.Kind:
			return 0
		case v.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.Kind != o.Kind {
		if v.Kind < o.Kind {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case KindString:
		return strings.Compare(v.Str, o.Str)
	case KindBool:
		switch {
		case v.Bool == o.Bool:
			return 0
		case !v.Bool:
			return -1
		default:
			return 1
		}
	default:
		return 0
	}
}
