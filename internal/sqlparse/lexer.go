// Package sqlparse implements a lexer, AST, and recursive-descent parser for
// the SQL subset used by the ASQP-RL reproduction: single SELECT statements
// with projections, FROM lists with aliases, explicit JOIN ... ON clauses,
// WHERE predicates (AND/OR/NOT, comparisons, BETWEEN, IN, LIKE, IS NULL,
// arithmetic), GROUP BY, HAVING, ORDER BY, and LIMIT. Aggregate functions
// COUNT/SUM/AVG/MIN/MAX (including COUNT(*)) are supported in projections and
// HAVING.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokOp // operators and punctuation: = <> != < <= > >= + - * / % ( ) , .
	tokError
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// keywords recognized by the lexer, each mapped to itself: the upper-case
// canonical form a keyword token carries.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range []string{
		"SELECT", "DISTINCT", "FROM", "WHERE",
		"AND", "OR", "NOT", "IN", "BETWEEN",
		"LIKE", "IS", "NULL", "AS", "JOIN",
		"INNER", "ON", "GROUP", "BY", "HAVING",
		"ORDER", "ASC", "DESC", "LIMIT",
		"TRUE", "FALSE",
		"COUNT", "SUM", "AVG", "MIN", "MAX",
	} {
		m[kw] = kw
	}
	return m
}()

// maxPresizedTokens bounds the token slice lex reserves from the length of
// its input; a longer statement grows it by appending.
const maxPresizedTokens = 1024

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src. A token with kind tokError is appended on the first
// lexical error and scanning stops.
func lex(src string) []token {
	// Generated statements run 0.17-0.26 tokens a byte: one allocation for
	// the token slice, where growing it from empty took six. The cap keeps a
	// long literal from reserving what it will not use.
	l := &lexer{src: src, toks: make([]token, 0, min(len(src)/3+2, maxPresizedTokens))}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "", l.pos)
			return l.toks
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(rune(c)):
			l.lexIdent(start)
		case unicode.IsDigit(rune(c)) || (c == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
			l.lexNumber(start)
		case c == '\'':
			if !l.lexString(start) {
				return l.toks
			}
		default:
			if !l.lexOp(start) {
				return l.toks
			}
		}
	}
}

func (l *lexer) emit(kind tokenKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: pos})
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
}

func isIdentStart(c rune) bool {
	return c == '_' || unicode.IsLetter(c)
}

func isIdentPart(c rune) bool {
	return c == '_' || unicode.IsLetter(c) || unicode.IsDigit(c)
}

func (l *lexer) lexIdent(start int) {
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	text := l.src[start:l.pos]
	if kw, ok := keyword(text); ok {
		l.emit(tokKeyword, kw, start)
	} else {
		l.emit(tokIdent, text, start)
	}
}

// keyword returns the canonical keyword strings.ToUpper(text) names, if any.
// An ASCII identifier is upper-cased in a stack buffer, and the string
// returned is the table's own, so a keyword or an identifier costs no
// allocation.
func keyword(text string) (string, bool) {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			kw, ok := keywords[strings.ToUpper(text)]
			return kw, ok
		}
	}
	var buf [len("DISTINCT")]byte // the longest keyword
	if len(text) > len(buf) {
		return "", false
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(text)])]
	return kw, ok
}

func (l *lexer) lexNumber(start int) {
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if unicode.IsDigit(rune(c)) {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			// "1." followed by identifier is not a float continuation we
			// support; require digit after dot.
			if l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1])) {
				seenDot = true
				l.pos++
				continue
			}
		}
		if (c == 'e' || c == 'E') && l.pos+1 < len(l.src) {
			next := l.src[l.pos+1]
			if unicode.IsDigit(rune(next)) || ((next == '+' || next == '-') && l.pos+2 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+2]))) {
				l.pos += 2
				for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
					l.pos++
				}
				break
			}
		}
		break
	}
	l.emit(tokNumber, l.src[start:l.pos], start)
}

// lexString scans a single-quoted SQL string with ” as the escaped quote.
// It reports whether scanning succeeded.
func (l *lexer) lexString(start int) bool {
	l.pos++ // opening quote
	// Without an escaped quote the literal is a slice of the source.
	if n := strings.IndexByte(l.src[l.pos:], '\''); n >= 0 && !strings.HasPrefix(l.src[l.pos+n+1:], "'") {
		l.emit(tokString, l.src[l.pos:l.pos+n], start)
		l.pos += n + 1
		return true
	}
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.emit(tokString, b.String(), start)
			return true
		}
		b.WriteByte(c)
		l.pos++
	}
	l.emit(tokError, fmt.Sprintf("unterminated string at offset %d", start), start)
	return false
}

// lexOp scans operators and punctuation. It reports whether scanning
// succeeded.
func (l *lexer) lexOp(start int) bool {
	two := ""
	if l.pos+2 <= len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.pos += 2
		if two == "!=" {
			two = "<>"
		}
		l.emit(tokOp, two, start)
		return true
	}
	c := l.src[l.pos]
	switch c {
	case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', '.', ';':
		l.pos++
		l.emit(tokOp, l.src[start:l.pos], start)
		return true
	}
	l.emit(tokError, fmt.Sprintf("unexpected character %q at offset %d", c, start), start)
	return false
}
