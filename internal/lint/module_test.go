package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite DOT golden files from current output")

// graphModule is a two-package module exercising every edge kind the DOT
// dumps can draw: plain calls, a method call through a goroutine literal
// (dashed "go" edge), an interprocedurally observed lock edge, and a
// declared-but-unobserved lock order (dotted edge).
var graphModule = map[string]string{
	"go.mod": "module graphmod\n\ngo 1.21\n",
	"a/a.go": `package a

import "sync"

// iam:lockorder S.mu > S.next
// iam:lockorder S.next > S.spare

type S struct {
	mu    sync.Mutex
	next  sync.Mutex
	spare sync.Mutex
}

func (s *S) Outer() {
	s.mu.Lock()
	s.inner()
	s.mu.Unlock()
}

func (s *S) inner() {
	s.next.Lock()
	s.next.Unlock()
}
`,
	"b/b.go": `package b

import "graphmod/a"

func Run(s *a.S) {
	done := make(chan struct{})
	go func() {
		s.Outer()
		close(done)
	}()
	<-done
}
`,
}

func loadGraphModule(t *testing.T) *ModuleFacts {
	t.Helper()
	root := writeTree(t, graphModule)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	return BuildModuleFacts(pkgs)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "graph", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestGraphDOTGolden golden-files the `iamlint -graph` DOT output for a
// fixture module, pinning the call-graph and lock-graph formats.
func TestGraphDOTGolden(t *testing.T) {
	m := loadGraphModule(t)
	checkGolden(t, "call.dot", m.CallGraphDOT())
	checkGolden(t, "lock.dot", m.LockGraphDOT())
}

// TestAtomicVerMechanicalFix checks the analyzer's companion fix: when every
// unguarded write to a published struct's field happens under the same
// sibling mutex, a warn diagnostic at the field declaration carries an
// insertion of the matching iam:guardedby annotation, and applying it makes
// the error findings disappear.
func TestAtomicVerMechanicalFix(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module fixmod\n\ngo 1.21\n",
		"p/p.go": `package p

import (
	"sync"
	"sync/atomic"
)

type State struct {
	mu   sync.Mutex
	hits int
}

var cur atomic.Pointer[State]

func Bump() {
	s := cur.Load()
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
}
`,
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pkgs, []*Analyzer{AnalyzerAtomicVer})
	var fixes, errs int
	for _, d := range diags {
		if d.Severity == SeverityError {
			errs++
		}
		if d.Fix != nil {
			fixes++
			if !strings.Contains(d.Fix.NewText, "iam:guardedby mu") {
				t.Errorf("fix text = %q, want iam:guardedby mu insertion", d.Fix.NewText)
			}
		}
	}
	if errs != 1 {
		t.Fatalf("got %d error diagnostics, want 1:\n%s", errs, format(diags))
	}
	if fixes != 1 {
		t.Fatalf("got %d fix diagnostics, want 1:\n%s", fixes, format(diags))
	}
	if n, err := ApplyFixes(diags); err != nil || n != 1 {
		t.Fatalf("ApplyFixes = %d, %v", n, err)
	}
	l, err = NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err = l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunAnalyzers(pkgs, []*Analyzer{AnalyzerAtomicVer}); len(diags) != 0 {
		t.Fatalf("diagnostics remain after fix:\n%s", format(diags))
	}
}
