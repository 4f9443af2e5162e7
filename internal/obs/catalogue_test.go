package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestMetricCatalogue holds DESIGN.md §7's metric catalogue to the source: it
// parses every non-test file under internal/ and fails on a registry name —
// the argument of a Counter, Gauge or Histogram call that is a string
// literal, a package-level constant, or one of those plus a suffix — that no
// catalogue row covers, and on an exact catalogue row no such call names.
// Names built from variables (slo/<name>/…, engine/phase/…) cannot be read
// off the syntax tree; their `prefix/*` rows are documentation only.
func TestMetricCatalogue(t *testing.T) {
	exact, prefixes := readCatalogue(t, filepath.Join("..", "..", "DESIGN.md"))

	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Package-level string constants, keyed "pkg.Name".
	consts := map[string]string{}
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
							consts[f.Name.Name+"."+name.Name], _ = strconv.Unquote(lit.Value)
						}
					}
				}
			}
		}
	}
	// resolve reads a metric name off an argument: the whole name, or (for
	// `known + suffix`) the prefix every name built there starts with.
	var resolve func(pkg string, e ast.Expr) (name string, isPrefix, ok bool)
	resolve = func(pkg string, e ast.Expr) (string, bool, bool) {
		switch e := e.(type) {
		case *ast.BasicLit:
			if e.Kind == token.STRING {
				s, err := strconv.Unquote(e.Value)
				return s, false, err == nil
			}
		case *ast.Ident:
			s, ok := consts[pkg+"."+e.Name]
			return s, false, ok
		case *ast.SelectorExpr:
			if x, isIdent := e.X.(*ast.Ident); isIdent {
				s, ok := consts[x.Name+"."+e.Sel.Name]
				return s, false, ok
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				s, _, ok := resolve(pkg, e.X)
				return s, true, ok
			}
		}
		return "", false, false
	}

	kinds := map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}
	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !kinds[sel.Sel.Name] {
				return true
			}
			name, isPrefix, ok := resolve(f.Name.Name, call.Args[0])
			if !ok {
				return true
			}
			used[name] = true
			covered := exact[name] && !isPrefix
			for _, p := range prefixes {
				covered = covered || strings.HasPrefix(name, p)
			}
			if !covered {
				t.Errorf("%s: %s %q is not in DESIGN.md §7's metric catalogue",
					fset.Position(call.Pos()), sel.Sel.Name, name)
			}
			return true
		})
	}
	var stale []string
	for name := range exact {
		if !used[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("catalogue row %q names no metric in the source", name)
	}
}

// readCatalogue returns the rows of the table between DESIGN.md's
// metric-catalogue markers: exact names, and the prefixes of `prefix/*` rows.
func readCatalogue(t *testing.T, path string) (exact map[string]bool, prefixes []string) {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "<!-- metric-catalogue:begin -->")
	table, _, ok2 := strings.Cut(rest, "<!-- metric-catalogue:end -->")
	if !ok || !ok2 {
		t.Fatalf("%s has no metric-catalogue markers", path)
	}
	exact = map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(table, -1) {
		if p, wild := strings.CutSuffix(m[1], "*"); wild {
			prefixes = append(prefixes, p)
		} else {
			exact[m[1]] = true
		}
	}
	if len(exact) == 0 {
		t.Fatalf("%s: the metric catalogue has no rows", path)
	}
	return exact, prefixes
}
