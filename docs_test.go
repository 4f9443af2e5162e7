package asqprl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The prose has one reader: every inline code span of the documents below is
// resolved against the source tree, so a renamed function, a deleted test, a
// dropped flag or a moved file cannot survive in a sentence. A span takes one
// of four forms —
//
//	pkg.Name, pkg.Type.Member   pkg a directory under internal/ or cmd/
//	TestX, FuzzX, BenchmarkX    a test function anywhere in the tree
//	-flag                       a flag some binary registers
//	a/repository/path, file.go  a path from the root, or a file's base name
//
// — and anything else (SQL, numbers, metric and span names, the benchmark's
// layer names, shell lines) is left alone. A file.go:123 line reference fails wherever it stands: line
// numbers rot with the next edit.
var checkedDocs = []string{"DESIGN.md", "README.md", "examples/serving/README.md"}

// goToolFlags are the flags of `go test` and of the usage line, which the
// documents name beside the binaries' own.
var goToolFlags = []string{"race", "run", "bench", "benchmem", "benchtime", "count", "cpu", "fuzz", "fuzztime", "h", "v"}

// tree is what the documents are resolved against.
type tree struct {
	pkgs  map[string]*pkgNames // by directory name under internal/ or cmd/
	tests map[string]bool      // every Test…/Fuzz…/Benchmark… function
	flags map[string]bool      // every registered flag, without the dash
	files map[string]bool      // base name of every file
	// layers holds BENCHMARK.json's per-layer metric names and their dotted
	// prefixes (engine.exec.join3.busy_us_p50, engine.exec.join3, …), which
	// look like pkg.Name and are not.
	layers map[string]bool
	root   string
}

type pkgNames struct {
	// names holds the package-level identifiers and, because prose writes
	// core.QueryContext for core.System.QueryContext, every method and field.
	names   map[string]bool
	members map[string]map[string]bool // type → methods and fields
}

func (p *pkgNames) member(typ, name string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][name] = true
	p.names[name] = true
}

var testName = regexp.MustCompile(`^(Test|Fuzz|Benchmark)[A-Z0-9_]\w*$`)

// repoTree is the tree of the repository, parsed once for both tests.
var repoTree = sync.OnceValues(func() (*tree, error) { return loadTree(".") })

// loadTree parses every Go file under internal/, cmd/, scripts/, the root and
// bench/ (its top level only: bench/out is build output), and lists every
// file name the repository holds.
func loadTree(root string) (*tree, error) {
	tr := &tree{pkgs: map[string]*pkgNames{}, tests: map[string]bool{}, flags: map[string]bool{}, files: map[string]bool{}, layers: map[string]bool{}, root: root}
	for _, f := range goToolFlags {
		tr.flags[f] = true
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json")); err != nil {
		return nil, err
	} else if err := json.Unmarshal(data, &spec); err != nil {
		return nil, err
	}
	for _, l := range spec.PerLayer {
		for name := l.Name; name != ""; name = name[:max(0, strings.LastIndex(name, "."))] {
			tr.layers[name] = true
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && rel != "." || rel == "bench/out" {
				return filepath.SkipDir
			}
			return nil
		}
		tr.files[d.Name()] = true
		top, _, _ := strings.Cut(rel, "/")
		nested := strings.Contains(rel, "/")
		if !strings.HasSuffix(rel, ".go") || nested && top != "internal" && top != "cmd" && top != "scripts" && top != "bench" {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		var pkg *pkgNames
		if top == "internal" || top == "cmd" {
			dir := filepath.Base(filepath.Dir(path))
			if pkg = tr.pkgs[dir]; pkg == nil {
				pkg = &pkgNames{names: map[string]bool{}, members: map[string]map[string]bool{}}
				tr.pkgs[dir] = pkg
			}
		}
		tr.addFile(file, pkg, strings.HasSuffix(rel, "_test.go"))
		return nil
	})
	if err != nil {
		return nil, err
	}
	// asqp-serve's flags are the ones its pinned usage text lists.
	help, err := os.Open(filepath.Join(root, "cmd/asqp-serve/testdata/help.golden"))
	if err != nil {
		return nil, err
	}
	defer help.Close()
	for sc := bufio.NewScanner(help); sc.Scan(); {
		if name, ok := strings.CutPrefix(sc.Text(), "  -"); ok {
			name, _, _ = strings.Cut(name, " ")
			tr.flags[name] = true
		}
	}
	return tr, nil
}

func (tr *tree) addFile(file *ast.File, pkg *pkgNames, isTest bool) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				if isTest && testName.MatchString(d.Name.Name) {
					tr.tests[d.Name.Name] = true
				}
				if pkg != nil {
					pkg.names[d.Name.Name] = true
				}
			} else if pkg != nil {
				pkg.member(recvName(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if pkg != nil {
							pkg.names[n.Name] = true
						}
					}
				case *ast.TypeSpec:
					if pkg == nil {
						continue
					}
					pkg.names[s.Name.Name] = true
					var fields *ast.FieldList
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					}
					if fields != nil {
						for _, f := range fields.List {
							for _, n := range f.Names {
								pkg.member(s.Name.Name, n.Name)
							}
						}
					}
				}
			}
		}
	}
	// flag.String("name", …), fs.DurationVar(&d, "name", …): the name is the
	// first string literal among the first two arguments.
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" && x.Name != "fs" {
			return true
		}
		for _, arg := range call.Args[:min(2, len(call.Args))] {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					tr.flags[name] = true
				}
				break
			}
		}
		return true
	})
}

func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr: // generic receiver
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// problem is one span that names something the tree does not hold.
type problem struct {
	line int
	msg  string
}

var (
	codeSpan   = regexp.MustCompile("``(.+?)``|`([^`]+)`")
	symbolSpan = regexp.MustCompile(`^([a-z][a-z0-9-]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\.[A-Za-z_]\w*)*(?:[({\[].*)?$`)
	testSpan   = regexp.MustCompile(`^((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)(?:/[\w=.-]+)*$`)
	flagSpan   = regexp.MustCompile(`^-([a-z][a-z0-9-]*)(?:[ =].*)?$`)
	pathSpan   = regexp.MustCompile(`^[\w.-]+(?:/[\w.-]+)*/?$`)
	fileSpan   = regexp.MustCompile(`^[\w-]+(?:\.[\w-]+)*\.(?:go|md|sh|golden|mod)$`)
	dataFile   = regexp.MustCompile(`\.(?:json|jsonl|csv|txt|log|sql)$`) // metrics.json is a bundle's file, not a name in package metrics
	lineRef    = regexp.MustCompile(`[\w./-]+\.go:\d+`)
)

// checkDoc resolves every inline code span of one document and returns how
// many symbol spans it resolved beside the spans it could not.
func (tr *tree) checkDoc(text string) (symbols int, problems []problem) {
	lines := strings.Split(text, "\n")
	fenced := false
	for i := 0; i < len(lines); {
		if strings.HasPrefix(strings.TrimSpace(lines[i]), "```") {
			fenced = !fenced
			i++
			continue
		}
		if fenced || strings.TrimSpace(lines[i]) == "" {
			i++
			continue
		}
		// One paragraph at a time: a span may wrap across lines, and an
		// unpaired backtick cannot reach past the blank line that ends it.
		start := i
		for i < len(lines) && strings.TrimSpace(lines[i]) != "" && !strings.HasPrefix(strings.TrimSpace(lines[i]), "```") {
			i++
		}
		para := strings.Join(lines[start:i], "\n")
		if loc := lineRef.FindStringIndex(para); loc != nil {
			problems = append(problems, problem{start + 1 + strings.Count(para[:loc[0]], "\n"),
				fmt.Sprintf("%s is a line reference; name the function instead", para[loc[0]:loc[1]])})
		}
		for _, m := range codeSpan.FindAllStringSubmatchIndex(para, -1) {
			lo, hi := m[2], m[3]
			if lo < 0 {
				lo, hi = m[4], m[5]
			}
			span := strings.Join(strings.Fields(para[lo:hi]), " ")
			ok, msg := tr.resolve(span)
			if msg != "" {
				problems = append(problems, problem{start + 1 + strings.Count(para[:lo], "\n"), msg})
			} else if ok {
				symbols++
			}
		}
	}
	return symbols, problems
}

// resolve checks one span. symbol reports a resolved pkg.Name form; msg is
// empty unless the span has one of the four forms and names nothing.
func (tr *tree) resolve(span string) (symbol bool, msg string) {
	if lineRef.MatchString(span) {
		return false, "" // reported once per paragraph by checkDoc
	}
	if m := testSpan.FindStringSubmatch(span); m != nil {
		if !tr.tests[m[1]] {
			return false, fmt.Sprintf("`%s`: no test function %s in the tree", span, m[1])
		}
		return false, ""
	}
	if m := flagSpan.FindStringSubmatch(span); m != nil {
		if !tr.flags[m[1]] {
			return false, fmt.Sprintf("`%s`: no binary registers a flag -%s", span, m[1])
		}
		return false, ""
	}
	// internal/sample.Variational is sample.Variational by its import path.
	sym := strings.TrimPrefix(strings.TrimPrefix(span, "internal/"), "cmd/")
	if m := symbolSpan.FindStringSubmatch(sym); m != nil && !tr.layers[span] && !dataFile.MatchString(span) {
		if pkg := tr.pkgs[m[1]]; pkg != nil && !fileSpan.MatchString(span) {
			switch {
			case !pkg.names[m[2]]:
				return false, fmt.Sprintf("`%s`: package %s declares no %s", span, m[1], m[2])
			case m[3] != "" && pkg.members[m[2]] != nil && !pkg.members[m[2]][m[3]]:
				return false, fmt.Sprintf("`%s`: %s.%s has no method or field %s", span, m[1], m[2], m[3])
			}
			return true, ""
		}
	}
	if pathSpan.MatchString(span) {
		first, _, nested := strings.Cut(strings.TrimSuffix(span, "/"), "/")
		if nested {
			// A path from the root, if its first element is one; otherwise a
			// metric, span or URL path, which is not this test's business.
			if _, err := os.Stat(filepath.Join(tr.root, first)); err != nil {
				return false, ""
			}
			if _, err := os.Stat(filepath.Join(tr.root, filepath.FromSlash(span))); err != nil {
				return false, fmt.Sprintf("`%s`: no such path in the repository", span)
			}
		} else if fileSpan.MatchString(span) && !tr.files[span] {
			return false, fmt.Sprintf("`%s`: no file of that name in the repository", span)
		}
	}
	return false, ""
}

// TestDocsResolve holds the documents to the tree.
func TestDocsResolve(t *testing.T) {
	tr, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range checkedDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		symbols, problems := tr.checkDoc(string(text))
		for _, p := range problems {
			t.Errorf("%s:%d: %s", doc, p.line, p.msg)
		}
		t.Logf("%s: %d symbol spans resolved", doc, symbols)
		// An extraction pattern that silently matches nothing must not pass.
		if doc == "DESIGN.md" && symbols < 100 {
			t.Errorf("DESIGN.md: only %d symbol spans resolved, want at least 100", symbols)
		}
	}
}

// TestDocsResolveRejects runs the resolver over in-memory documents: each bad
// span is reported once, on its line; what is not one of the four forms passes.
func TestDocsResolveRejects(t *testing.T) {
	tr, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, doc string
		line      int    // 0: the document must pass
		want      string // part of the message
	}{
		{"symbol", "Routing is `core.System.QueryStmtContext` (or `core.QueryStmtContext`), built by\n`server.New`, over `table.JoinIndex`, sampled by `internal/sample.Variational`.", 0, ""},
		{"renamed function", "intro\n\nRouting is\n`core.System.QueryStatementContext`.", 4, "no method or field QueryStatementContext"},
		{"deleted package-level name", "`obs.Gauge` moves both ways.", 1, "package obs declares no Gauge"},
		{"composite literal wrapped across lines", "Lineage is `engine.Options{TrackLineage:\ntrue}`; `engine.NoSuchOptions{A:\n1}` is not.", 2, "package engine declares no NoSuchOptions"},
		{"test name", "Held by `TestDocsResolve` and `FuzzParse`.", 0, ""},
		{"deleted test name", "one\ntwo\nHeld by `TestNoSuchTestExists`.", 3, "no test function TestNoSuchTestExists"},
		{"sub-benchmark", "`BenchmarkNoSuchBench/wide-declines`", 1, "no test function BenchmarkNoSuchBench"},
		{"flags", "Start with `-wal-dir /tmp/w`, `-light` and `-race`.", 0, ""},
		{"unknown flag", "Set `-no-such-flag 3` first.", 1, "no binary registers a flag -no-such-flag"},
		{"paths", "See `internal/core/system.go`, `scripts/check.sh`, `help.golden` and `bench/`.", 0, ""},
		{"missing path", "\n\nSee `internal/core/nosuchfile.go`.", 3, "no such path"},
		{"missing file name", "It lives in `nosuchfile.go`.", 1, "no file of that name"},
		{"line reference in a span", "See `system.go:42`.", 1, "line reference"},
		{"line reference in prose", "a\nb\nsee internal/core/system.go:42 for it", 3, "line reference"},
		{"sql, numbers, metric names, shell", "`SELECT * FROM title WHERE rating > 7`, `0.407`, `core/drift/dropped`,\n`engine/join`, `/stats`, `engine.exec.join3`, `wal.appended`, `metrics.json`, `go test ./... -run 'TestX|TestY'`, `--seed 1`, `*.csv`.", 0, ""},
		{"fenced blocks are not spans", "```sh\nasqp-serve -no-such-flag `x`\n```", 0, ""},
	}
	for _, c := range cases {
		_, problems := tr.checkDoc(c.doc)
		switch {
		case c.line == 0 && len(problems) > 0:
			t.Errorf("%s: want no problem, got %v", c.name, problems)
		case c.line > 0 && (len(problems) != 1 || problems[0].line != c.line || !strings.Contains(problems[0].msg, c.want)):
			t.Errorf("%s: want one problem on line %d mentioning %q, got %v", c.name, c.line, c.want, problems)
		}
	}
}
