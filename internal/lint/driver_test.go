package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseFuncBody parses a single function declaration and returns its body.
func parseFuncBody(t *testing.T, fn string) *ast.BlockStmt {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg.go", "package p\n\n"+fn, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return fd.Body
		}
	}
	t.Fatal("no function in source")
	return nil
}

// reachableBlocks returns the set of blocks reachable from the entry.
func reachableBlocks(g *cfg) map[*cfgBlock]bool {
	seen := map[*cfgBlock]bool{}
	work := []*cfgBlock{g.entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[blk] {
			continue
		}
		seen[blk] = true
		work = append(work, blk.succs...)
	}
	return seen
}

func TestCFGStraightLine(t *testing.T) {
	g := buildCFG(parseFuncBody(t, "func f() { a := 1; b := 2; _ = a; _ = b }"))
	if len(g.entry.nodes) != 4 {
		t.Errorf("entry block has %d nodes, want 4", len(g.entry.nodes))
	}
	if !reachableBlocks(g)[g.exit] {
		t.Error("exit not reachable from entry")
	}
}

func TestCFGIfJoin(t *testing.T) {
	g := buildCFG(parseFuncBody(t, `func f(b bool) int {
	x := 0
	if b {
		x = 1
	} else {
		x = 2
	}
	return x
}`))
	reach := reachableBlocks(g)
	if !reach[g.exit] {
		t.Fatal("exit not reachable")
	}
	// The entry block ends at the condition and must fork into two branches.
	var fork *cfgBlock
	for blk := range reach {
		if len(blk.succs) >= 2 {
			fork = blk
			break
		}
	}
	if fork == nil {
		t.Fatal("no block forks into two branches")
	}
}

func TestCFGReturnTerminatesBlock(t *testing.T) {
	g := buildCFG(parseFuncBody(t, `func f() int {
	return 1
	x := 2 //nolint:govet // deliberately unreachable
	_ = x
	return 0
}`))
	reach := reachableBlocks(g)
	if !reach[g.exit] {
		t.Fatal("exit not reachable")
	}
	// The statements after the return live in a block no edge reaches.
	unreachable := 0
	for _, blk := range g.blocks {
		if !reach[blk] && len(blk.nodes) > 0 {
			unreachable++
		}
	}
	if unreachable == 0 {
		t.Error("code after return should be in an unreachable block")
	}
}

func TestCFGForLoopCycle(t *testing.T) {
	g := buildCFG(parseFuncBody(t, `func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`))
	reach := reachableBlocks(g)
	if !reach[g.exit] {
		t.Fatal("exit not reachable")
	}
	// The loop header must be reachable from itself (a back edge exists).
	cyclic := false
	for blk := range reach {
		sub := map[*cfgBlock]bool{}
		work := append([]*cfgBlock{}, blk.succs...)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			if sub[b] {
				continue
			}
			sub[b] = true
			work = append(work, b.succs...)
		}
		if sub[blk] {
			cyclic = true
			break
		}
	}
	if !cyclic {
		t.Error("for loop produced no cycle in the CFG")
	}
}

func TestCFGPanicTerminates(t *testing.T) {
	g := buildCFG(parseFuncBody(t, `func f(b bool) {
	if b {
		panic("boom")
	}
	_ = b
}`))
	// The panic block must not flow into the statement after the if.
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						if len(blk.succs) != 1 || blk.succs[0] != g.exit {
							t.Errorf("panic block succs = %d blocks, want only the exit", len(blk.succs))
						}
					}
				}
			}
		}
	}
}

// loadInline writes src into a temp dir and loads it as a one-file package.
func loadInline(t *testing.T, pkgPath, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "src.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(dir, pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGuardedByLoopRelock: locking and unlocking inside each iteration keeps
// every guarded access covered, including across the back edge.
func TestGuardedByLoopRelock(t *testing.T) {
	p := loadInline(t, "fixture/guardloop", `package guardloop

import "sync"

type C struct {
	mu sync.Mutex
	n  int // iam:guardedby mu
}

func Sum(c *C, k int) int {
	s := 0
	for i := 0; i < k; i++ {
		c.mu.Lock()
		s += c.n
		c.mu.Unlock()
	}
	return s
}
`)
	got := RunAnalyzers([]*Package{p}, []*Analyzer{AnalyzerGuardedBy})
	if len(got) != 0 {
		t.Errorf("loop relock reported %d diagnostics, want 0:\n%s", len(got), format(got))
	}
}

// TestGuardedByLoopLostLock: unlocking mid-loop means the access at the top
// of the next iteration is unprotected — the back-edge meet must catch it.
func TestGuardedByLoopLostLock(t *testing.T) {
	p := loadInline(t, "fixture/guardlost", `package guardlost

import "sync"

type C struct {
	mu sync.Mutex
	n  int // iam:guardedby mu
}

func Sum(c *C, k int) int {
	s := 0
	c.mu.Lock()
	for i := 0; i < k; i++ {
		s += c.n
		c.mu.Unlock()
	}
	return s
}
`)
	got := RunAnalyzers([]*Package{p}, []*Analyzer{AnalyzerGuardedBy})
	if len(got) == 0 {
		t.Error("lock released inside the loop body was not reported on the next iteration's access")
	}
}

// TestSuppressionPlacement: a directive must keep suppressing its statement
// when blank lines or further comments sit between them, and must stop at the
// first code-bearing line.
func TestSuppressionPlacement(t *testing.T) {
	p := loadInline(t, "fixture/suppress", `package suppress

func SeparatedByCommentAndBlank(a, b float64) bool {
	//lint:ignore floateq deliberate exact comparison for the test
	// explanatory comment inserted between directive and statement

	return a == b
}

func OnlyNextCodeLine(a, b float64) (bool, bool) {
	//lint:ignore floateq only the first comparison is accepted
	x := a == b
	y := a != b
	return x, y
}
`)
	got := RunAnalyzers([]*Package{p}, []*Analyzer{AnalyzerFloatEq})
	if len(got) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1 (the y := line):\n%s", len(got), format(got))
	}
	if got[0].Line != 13 {
		t.Errorf("surviving diagnostic on line %d, want 13 (y := a != b)", got[0].Line)
	}
}

// writeTree lays out a file tree under a fresh temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		full := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestRun drives the whole lint pipeline over synthetic modules: loading,
// per-package and interprocedural analyzers, //lint:ignore suppression and
// pattern scoping. want lists one message substring per expected diagnostic,
// in sorted order.
func TestRun(t *testing.T) {
	floatMod := map[string]string{
		"go.mod": "module fake\n\ngo 1.21\n",
		"a/a.go": "package a\n\nfunc Eq(x, y float64) bool { return x == y }\n\nfunc Ne(x, y float64) bool {\n\t//lint:ignore floateq test\n\treturn x != y\n}\n\nfunc work() {}\n\nfunc Start() {\n\tgo work()\n}\n",
		"b/b.go": "package b\n\nimport \"fake/a\"\n\nfunc F(x float64) bool { return a.Eq(x, x) }\n",
	}
	leakMod := func(body string) map[string]string {
		return map[string]string{
			"go.mod": "module leakmod\n\ngo 1.21\n",
			"w/w.go": "package w\n\nfunc work() {}\n\nfunc Start() {\n" + body + "}\n",
		}
	}
	taintMod := map[string]string{
		"go.mod": "module taintmod\n\ngo 1.21\n",
		"h/h.go": `package h

import (
	"math"
	"time"
)

func Stamp() int64 {
	return time.Now().UnixNano()
}

func LogTerm(p float64) float64 {
	return math.Log(p)
}
`,
		"m/m.go": `package m

import "taintmod/h"

// iam:deterministic
func Run(ps []float64) float64 {
	_ = h.Stamp()
	return Sum(ps)
}

// iam:numsafe
func Sum(ps []float64) float64 {
	var s float64
	for _, p := range ps {
		s += h.LogTerm(p)
	}
	return s
}
`,
	}
	const detsource = "// iam:detsource coarse epoch bucket, quantized to a release constant\n"
	annMod := func(annotation string) map[string]string {
		return map[string]string{
			"go.mod": "module annmod\n\ngo 1.21\n",
			"h/h.go": "package h\n\nimport \"time\"\n\n" + annotation + "func Epoch() int64 {\n\treturn time.Now().UnixNano()\n}\n",
			"m/m.go": "package m\n\nimport \"annmod/h\"\n\n// iam:deterministic\nfunc Run() int64 {\n\treturn h.Epoch()\n}\n",
		}
	}

	cases := []struct {
		name      string
		files     map[string]string
		patterns  []string
		analyzers []*Analyzer
		want      []string
		wantErr   bool
	}{
		{
			// The suppressed comparison in Ne is not reported.
			name: "floateq_suppressed", files: floatMod, patterns: []string{"./..."},
			analyzers: []*Analyzer{AnalyzerFloatEq},
			want:      []string{"exact float comparison"},
		},
		{
			// Neither a's per-package nor its module findings leak into b.
			name: "pattern_excludes_other_package", files: floatMod, patterns: []string{"b"},
			analyzers: []*Analyzer{AnalyzerFloatEq, AnalyzerGoLeak},
		},
		{
			name: "pattern_matches_nothing", files: floatMod, patterns: []string{"c"},
			analyzers: []*Analyzer{AnalyzerFloatEq}, wantErr: true,
		},
		{
			name: "goleak_unjoined", files: leakMod("\tgo work()\n"),
			analyzers: []*Analyzer{AnalyzerGoLeak},
			want:      []string{"no join point"},
		},
		{
			name: "goleak_joined", files: leakMod("\tdone := make(chan struct{})\n\tgo func() {\n\t\twork()\n\t\tclose(done)\n\t}()\n\t<-done\n"),
			analyzers: []*Analyzer{AnalyzerGoLeak},
		},
		{
			name: "detflow_cross_package", files: taintMod,
			analyzers: []*Analyzer{AnalyzerDetFlow},
			want:      []string{"taintmod/m.Run → taintmod/h.Stamp: time.Now"},
		},
		{
			name: "numflow_cross_package", files: taintMod,
			analyzers: []*Analyzer{AnalyzerNumFlow},
			want:      []string{"passes unguarded argument"},
		},
		{
			// An iam:detsource in the callee's package sanitizes the path.
			name: "detflow_detsource", files: annMod(detsource),
			analyzers: []*Analyzer{AnalyzerDetFlow},
		},
		{
			// The same code without the annotation is reported again.
			name: "detflow_detsource_removed", files: annMod(""),
			analyzers: []*Analyzer{AnalyzerDetFlow},
			want:      []string{"reaches nondeterminism [time]"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := writeTree(t, tc.files)
			diags, err := Run(root, tc.patterns, tc.analyzers)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Run succeeded with %d diagnostics, want a pattern error", len(diags))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(diags) != len(tc.want) {
				t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(tc.want), format(diags))
			}
			for i, d := range diags {
				if !strings.Contains(d.Message, tc.want[i]) {
					t.Errorf("diagnostic %d = %s, want message containing %q", i, d, tc.want[i])
				}
			}
		})
	}
}

// TestCacheWarmAndInvalidation checks that Run keeps no state between calls:
// a repeated run reports the same findings, and edits to a package or to a
// package it imports are seen by the next run.
func TestCacheWarmAndInvalidation(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module fake\n\ngo 1.21\n",
		"a/a.go": "package a\n\nfunc Eq(x, y float64) bool { return x == y }\n",
		"b/b.go": "package b\n\nimport \"fake/a\"\n\nfunc F(x float64) bool { return a.Eq(x, x) }\n",
	})
	analyzers := []*Analyzer{AnalyzerFloatEq}
	run := func() []Diagnostic {
		t.Helper()
		diags, err := Run(root, []string{"./..."}, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}

	diags := run()
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "exact float comparison") {
		t.Fatalf("first run diagnostics = %s", format(diags))
	}
	if again := run(); format(again) != format(diags) {
		t.Errorf("repeated run differs:\nfirst:\n%ssecond:\n%s", format(diags), format(again))
	}

	// Adding a comparison to b is reported alongside a's.
	if err := os.WriteFile(filepath.Join(root, "b", "b.go"),
		[]byte("package b\n\nimport \"fake/a\"\n\nfunc G(x float64) bool { return a.Eq(x, x+1) || x == 1 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if diags := run(); len(diags) != 2 {
		t.Errorf("after editing b: got %d diagnostics, want 2:\n%s", len(diags), format(diags))
	}

	// Removing a's comparison leaves only b's.
	if err := os.WriteFile(filepath.Join(root, "a", "a.go"),
		[]byte("package a\n\nfunc Eq(x, y float64) bool { return x < y }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	diags = run()
	if len(diags) != 1 || !strings.HasSuffix(filepath.ToSlash(diags[0].File), "b/b.go") {
		t.Errorf("after editing a: got %s, want one finding in b/b.go", format(diags))
	}
}

// TestCacheSuppressionsNotReplayed checks that a suppressed finding stays
// unreported on every run, not only the first.
func TestCacheSuppressionsNotReplayed(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module fake\n\ngo 1.21\n",
		"a/a.go": "package a\n\nfunc Eq(x, y float64) bool {\n\t//lint:ignore floateq test\n\treturn x == y\n}\n",
	})
	for run := 0; run < 2; run++ {
		diags, err := Run(root, []string{"./..."}, []*Analyzer{AnalyzerFloatEq})
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 0 {
			t.Errorf("run %d: suppressed finding leaked: %s", run, format(diags))
		}
	}
}

// TestApplyFixes rewrites a file through suggested fixes and rejects overlaps.
func TestApplyFixes(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "x.go")
	src := "package x\n\nfunc f(a, b, c float64) (bool, bool) { return a == b, b == c }\n"
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	first := strings.Index(src, "a == b")
	second := strings.Index(src, "b == c")
	n, err := ApplyFixes([]Diagnostic{
		{File: file, Fix: &Fix{Start: first, End: first + len("a == b"), NewText: "vecmath.ApproxEqual(a, b)"}},
		{File: file, Fix: &Fix{Start: second, End: second + len("b == c"), NewText: "vecmath.ApproxEqual(b, c)"}},
		{File: file}, // no fix attached: ignored
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("applied %d fixes, want 2", n)
	}
	got, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := "package x\n\nfunc f(a, b, c float64) (bool, bool) { return vecmath.ApproxEqual(a, b), vecmath.ApproxEqual(b, c) }\n"
	if string(got) != want {
		t.Errorf("rewritten file:\n%s\nwant:\n%s", got, want)
	}

	if _, err := ApplyFixes([]Diagnostic{
		{File: file, Fix: &Fix{Start: 0, End: 10, NewText: "x"}},
		{File: file, Fix: &Fix{Start: 5, End: 15, NewText: "y"}},
	}); err == nil {
		t.Error("overlapping fixes were not rejected")
	}
}

// TestFloatEqSuggestedFix: the error-severity rewrite must produce text that
// swaps the comparison for vecmath.ApproxEqual, honoring negation.
func TestFloatEqSuggestedFix(t *testing.T) {
	dir := t.TempDir()
	src := `package fixme

import "iam/internal/vecmath"

var _ = vecmath.Eps

func f(a, b float64) bool { return a != b }
`
	if err := os.WriteFile(filepath.Join(dir, "src.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(dir, "fixture/fixme")
	if err != nil {
		t.Fatal(err)
	}
	got := RunAnalyzers([]*Package{p}, []*Analyzer{AnalyzerFloatEq})
	if len(got) != 1 {
		t.Fatalf("diagnostics = %s", format(got))
	}
	if got[0].Fix == nil {
		t.Fatal("error-severity comparison carries no suggested fix")
	}
	if got[0].Fix.NewText != "!vecmath.ApproxEqual(a, b)" {
		t.Errorf("fix text = %q", got[0].Fix.NewText)
	}
	if _, err := ApplyFixes(got); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(dir, "src.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(after), "return !vecmath.ApproxEqual(a, b)") {
		t.Errorf("file after -fix:\n%s", after)
	}
}
