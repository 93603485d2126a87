package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
