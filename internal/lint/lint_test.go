package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// want is one expectation parsed from a `// want "regex"` comment.
type want struct {
	file string // base name
	line int
	re   *regexp.Regexp
}

var wantRe = regexp.MustCompile(`//\s*want\s+"([^"]+)"`)

// parseWants scans every fixture file in dir for `// want "regex"`
// annotations, which mark the line an analyzer must flag.
func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []want
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex: %v", e.Name(), line, err)
				}
				out = append(out, want{file: e.Name(), line: line, re: re})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		_ = f.Close() // read-only descriptor
	}
	return out
}

// TestFixtures loads each seeded fixture package and checks the analyzer
// reports exactly the annotated lines — no more, no less. Suppressed
// violations inside the fixtures double as tests of //lint:ignore.
func TestFixtures(t *testing.T) {
	cases := []struct {
		check   string
		pkgPath string // synthetic import path (nopanic keys off /internal/)
	}{
		{"nopanic", "fixture/internal/nopanic"},
		{"globalrand", "fixture/globalrand"},
		{"atomicwrite", "fixture/atomicwrite"},
		{"ctxtrain", "fixture/ctxtrain"},
		{"closecheck", "fixture/closecheck"},
		{"maprange", "fixture/maprange"},
		{"guardedby", "fixture/guardedby"},
		{"seedflow", "fixture/seedflow"},
		{"shapecheck", "fixture/shapecheck"},
	}
	for _, c := range cases {
		t.Run(c.check, func(t *testing.T) {
			a := AnalyzerByName(c.check)
			if a == nil {
				t.Fatalf("unknown analyzer %q", c.check)
			}
			l, err := NewLoader(".")
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join("testdata", "src", c.check)
			p, err := l.LoadDir(dir, c.pkgPath)
			if err != nil {
				t.Fatal(err)
			}
			got := RunAnalyzers([]*Package{p}, []*Analyzer{a})
			wants := parseWants(t, dir)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want annotations", dir)
			}

			matched := make([]bool, len(wants))
		diags:
			for _, d := range got {
				for i, w := range wants {
					if matched[i] || filepath.Base(d.File) != w.file || d.Line != w.line {
						continue
					}
					if !w.re.MatchString(d.Message) {
						t.Errorf("%s:%d: message %q does not match want /%s/", w.file, w.line, d.Message, w.re)
					}
					matched[i] = true
					continue diags
				}
				t.Errorf("unexpected diagnostic: %s", d)
			}
			for i, w := range wants {
				if !matched[i] {
					t.Errorf("%s:%d: expected diagnostic /%s/ not reported", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestMalformedSuppression: an ignore directive without a reason must not
// suppress anything and is itself reported, as is one naming an unknown
// check. The noalloc name, which only cmd/noalloccheck reads, is accepted.
func TestMalformedSuppression(t *testing.T) {
	dir := t.TempDir()
	src := `package bad

func NoReason(x int) int {
	//lint:ignore nopanic
	panic("still reported")
}

func UnknownCheck(x int) int {
	//lint:ignore nosuchcheck because
	panic("also still reported")
}

func EscapeNote(x int) *int {
	//lint:ignore noalloc read by cmd/noalloccheck, not by an analyzer
	return &x
}
`
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.LoadDir(dir, "fixture/internal/bad")
	if err != nil {
		t.Fatal(err)
	}
	got := RunAnalyzers([]*Package{p}, []*Analyzer{AnalyzerNoPanic})
	counts := map[string]int{}
	for _, d := range got {
		counts[d.Check]++
	}
	if counts["nopanic"] != 2 {
		t.Errorf("nopanic diagnostics = %d, want 2 (malformed directives must not suppress):\n%s", counts["nopanic"], format(got))
	}
	if counts["lintdirective"] != 2 {
		t.Errorf("lintdirective diagnostics = %d, want 2 (missing reason + unknown check):\n%s", counts["lintdirective"], format(got))
	}
}

func format(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// TestRepoIsClean is the self-application gate: running every analyzer over
// the whole module must produce zero error-severity diagnostics. This is the
// same invariant CI enforces via `go run ./cmd/iamlint ./...` — warn-severity
// findings belong to the nightly `-severity=warn` sweep and do not fail.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module from source")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; module discovery is broken", len(pkgs))
	}
	if len(Analyzers()) != 9 {
		t.Fatalf("analyzer roster has %d entries, want 9", len(Analyzers()))
	}
	for _, d := range FilterSeverity(RunAnalyzers(pkgs, Analyzers()), SeverityError) {
		t.Errorf("%s", d)
	}
}

// TestLoaderPatterns covers the package-pattern matching used by the CLI.
func TestLoaderPatterns(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("internal/lint")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].PkgPath != "iam/internal/lint" {
		t.Fatalf("Load(internal/lint) = %v", pkgNames(pkgs))
	}
	sub, err := l.Load("internal/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sub {
		if !strings.HasPrefix(p.PkgPath, "iam/internal/") {
			t.Fatalf("pattern internal/... matched %s", p.PkgPath)
		}
	}
	if _, err := l.Load("no/such/package"); err == nil {
		t.Fatal("unmatched pattern did not error")
	}
}

func pkgNames(pkgs []*Package) []string {
	out := make([]string, len(pkgs))
	for i, p := range pkgs {
		out[i] = p.PkgPath
	}
	return out
}
