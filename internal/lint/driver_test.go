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
	p := loadInline(t, "fixture/internal/suppress", `package suppress

func SeparatedByCommentAndBlank() {
	//lint:ignore nopanic deliberate panic for the test
	// explanatory comment inserted between directive and statement

	panic("suppressed")
}

func OnlyNextCodeLine() {
	//lint:ignore nopanic only the first panic is accepted
	panic("first")
	panic("second")
}
`)
	got := RunAnalyzers([]*Package{p}, []*Analyzer{AnalyzerNoPanic})
	if len(got) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1 (the second panic):\n%s", len(got), format(got))
	}
	if got[0].Line != 13 {
		t.Errorf("surviving diagnostic on line %d, want 13 (panic(\"second\"))", got[0].Line)
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
// analyzers, //lint:ignore suppression and pattern scoping. want lists one
// message substring per expected diagnostic, in sorted order.
func TestRun(t *testing.T) {
	// Package a has two global rand draws, one of them suppressed; b calls
	// into a and has no finding of its own.
	randMod := map[string]string{
		"go.mod": "module fake\n\ngo 1.21\n",
		"a/a.go": `package a

import "math/rand"

func Pick() int { return rand.Intn(3) }

func Accepted() int {
	//lint:ignore globalrand test
	return rand.Intn(5)
}
`,
		"b/b.go": "package b\n\nimport \"fake/a\"\n\nfunc F() int { return a.Pick() + a.Accepted() }\n",
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
			// The suppressed draw in Accepted is not reported.
			name: "globalrand_suppressed", files: randMod, patterns: []string{"./..."},
			analyzers: []*Analyzer{AnalyzerGlobalRand},
			want:      []string{"rand.Intn"},
		},
		{
			// a's finding does not leak into b, which imports it.
			name: "pattern_excludes_other_package", files: randMod, patterns: []string{"b"},
			analyzers: []*Analyzer{AnalyzerGlobalRand},
		},
		{
			name: "pattern_matches_nothing", files: randMod, patterns: []string{"c"},
			analyzers: []*Analyzer{AnalyzerGlobalRand}, wantErr: true,
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
	// b closes an a.Sink without checking the error. Sink is not a writer
	// yet, so the bare Close is out of closecheck's scope.
	root := writeTree(t, map[string]string{
		"go.mod": "module fake\n\ngo 1.21\n",
		"a/a.go": "package a\n\ntype Sink struct{}\n\nfunc (Sink) Close() error { return nil }\n",
		"b/b.go": "package b\n\nimport \"fake/a\"\n\nfunc F(s a.Sink) { s.Close() }\n",
	})
	analyzers := []*Analyzer{AnalyzerCloseCheck}
	run := func() []Diagnostic {
		t.Helper()
		diags, err := Run(root, []string{"./..."}, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}

	if diags := run(); len(diags) != 0 {
		t.Fatalf("first run diagnostics = %s, want none", format(diags))
	}
	if diags := run(); len(diags) != 0 {
		t.Fatalf("repeated run diagnostics = %s, want none", format(diags))
	}

	// Giving a's Sink a Write method makes it a writer: b's bare Close is
	// now reported, although b did not change.
	if err := os.WriteFile(filepath.Join(root, "a", "a.go"),
		[]byte("package a\n\ntype Sink struct{}\n\nfunc (Sink) Close() error { return nil }\n\nfunc (Sink) Write(p []byte) (int, error) { return len(p), nil }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := run()
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "(fake/a.Sink).Close drops its error") ||
		filepath.Base(diags[0].File) != "b.go" {
		t.Fatalf("after editing a: got %s, want b's bare Close", format(diags))
	}
	if again := run(); format(again) != format(diags) {
		t.Errorf("repeated run differs:\nfirst:\n%ssecond:\n%s", format(diags), format(again))
	}

	// Checking the error in b clears the finding.
	if err := os.WriteFile(filepath.Join(root, "b", "b.go"),
		[]byte("package b\n\nimport \"fake/a\"\n\nfunc F(s a.Sink) error { return s.Close() }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if diags := run(); len(diags) != 0 {
		t.Errorf("after editing b: got %s, want none", format(diags))
	}
}

// TestCacheSuppressionsNotReplayed checks that a suppressed finding stays
// unreported on every run, not only the first.
func TestCacheSuppressionsNotReplayed(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module fake\n\ngo 1.21\n",
		"a/a.go": "package a\n\nimport \"os\"\n\nfunc F(f *os.File) {\n\t//lint:ignore closecheck test\n\tf.Close()\n}\n",
	})
	for run := 0; run < 2; run++ {
		diags, err := Run(root, []string{"./..."}, []*Analyzer{AnalyzerCloseCheck})
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 0 {
			t.Errorf("run %d: suppressed finding leaked: %s", run, format(diags))
		}
	}
}
