package sqlparse

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestKeywordMatchesToUpper holds the allocation-free keyword lookup to the
// one it replaced, strings.ToUpper and a set: every keyword in mixed case,
// identifiers just past the longest keyword, non-ASCII and random strings.
func TestKeywordMatchesToUpper(t *testing.T) {
	check := func(s string) bool {
		up := strings.ToUpper(s)
		_, want := keywords[up]
		kw, ok := keyword(s)
		return ok == want && (!ok || kw == up)
	}
	inputs := []string{"", "x", "distincts", "DISTINCTX", "ſelect", "dıstınct", "Äs", "\xffon"}
	for kw := range keywords {
		inputs = append(inputs, kw, strings.ToLower(kw), strings.ToLower(kw[:1])+kw[1:], kw+"_")
	}
	for _, s := range inputs {
		if !check(s) {
			kw, ok := keyword(s)
			t.Errorf("keyword(%q) = (%q, %v), want ToUpper's %q", s, kw, ok, strings.ToUpper(s))
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestLexStringLiterals: a literal without an escaped quote is a slice of the
// source, one with them is unescaped, and one without its closing quote is a
// lexical error.
func TestLexStringLiterals(t *testing.T) {
	for src, want := range map[string]string{
		"'abc'":        "abc",
		"''":           "",
		"'O''Brien' x": "O'Brien",
		"''''":         "'",
		"'a''' b":      "a'",
		"'a' 'b'":      "a",
	} {
		toks := lex(src)
		if toks[0].kind != tokString || toks[0].text != want {
			t.Errorf("lex(%q)[0] = %v %q, want string %q", src, toks[0].kind, toks[0].text, want)
		}
	}
	for _, src := range []string{"'abc", "'a''", "'"} {
		if toks := lex(src); toks[len(toks)-1].kind != tokError {
			t.Errorf("lex(%q) = %v, want a trailing error token", src, toks)
		}
	}
}
