package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyFixture copies testdata/escape into a fresh temp dir, applying edit
// to fixture.go's source, and returns the copy's root.
func copyFixture(t *testing.T, edit func(string) string) string {
	t.Helper()
	root := t.TempDir()
	for _, name := range []string{"go.mod", "fixture.go"} {
		src, err := os.ReadFile(filepath.Join("testdata", "escape", name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "fixture.go" {
			src = []byte(edit(string(src)))
		}
		if err := os.WriteFile(filepath.Join(root, name), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestFixtureEscapes runs the check over a fixture module holding the same
// heap allocation three times: in an unsuppressed iam:noalloc function (a
// violation naming its line), in a suppressed one, and outside any
// annotated function (both ignored).
func TestFixtureEscapes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(filepath.Join("testdata", "escape"), false, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%sstderr:\n%s", code, &stdout, &stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d violations, want 1 (Leak's return):\n%s", len(lines), &stdout)
	}
	if !strings.HasPrefix(lines[0], "./fixture.go:12: &buf{} escapes to heap") ||
		!strings.HasSuffix(lines[0], "(inside iam:noalloc noallocfixture.Leak)") {
		t.Errorf("violation = %q, want fixture.go:12 inside noallocfixture.Leak", lines[0])
	}
}

// TestFixtureSuppressions: a reasoned suppression over the same escape
// passes, and a directive without a reason does not suppress.
func TestFixtureSuppressions(t *testing.T) {
	for _, tc := range []struct {
		name      string
		directive string
		want      int
	}{
		{"reasoned", "\t//lint:ignore noalloc fixture allocation, accepted\n", 0},
		{"multi_check", "\t//lint:ignore nopanic,noalloc fixture allocation, accepted\n", 0},
		{"no_reason", "\t//lint:ignore noalloc\n", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := copyFixture(t, func(src string) string {
				return strings.Replace(src, "func Leak() *buf {\n", "func Leak() *buf {\n"+tc.directive, 1)
			})
			var stdout, stderr bytes.Buffer
			if code := run(root, false, &stdout, &stderr); code != tc.want {
				t.Errorf("exit code = %d, want %d\nstdout:\n%sstderr:\n%s", code, tc.want, &stdout, &stderr)
			}
		})
	}
}
