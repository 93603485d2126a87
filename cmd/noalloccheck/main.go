// Command noalloccheck enforces the `// iam:noalloc` contract with the
// compiler's escape analysis.
//
// A function annotated iam:noalloc is a steady-state hot path (the
// progressive sampler's step, training's runBatch, the server's enqueue, the
// serial matmul kernels) that must not heap-allocate. The compiler's escape
// analysis (`go build -gcflags=<pkg>=-m=2`) is the ground truth for "this
// expression is heap-allocated", but it runs per build, knows nothing about
// the annotation, and reports a superset of noise (inlining notes, parameter
// leaks).
//
// noalloccheck joins the two. It parses the module with go/parser alone,
// records each annotated function's line extent and each line a
// `//lint:ignore noalloc <reason>` (or `all`) directive covers, rebuilds every
// package containing an annotated function with -m=2, and fails on any
// "escapes to heap" / "moved to heap" note inside an annotated function that
// no directive covers. The AllocsPerRun tests measure the same paths at run
// time; this check names the line.
//
// Usage, from any directory inside the module:
//
//	noalloccheck [-v]
//
// Exit codes: 0 clean, 1 unsuppressed escape notes, 2 parse or build failure.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	verbose := flag.Bool("v", false, "print per-package note statistics to stderr")
	flag.Parse()
	os.Exit(run(".", *verbose, os.Stdout, os.Stderr))
}

// region is the line extent of one iam:noalloc function.
type region struct {
	name       string // "pkg/path.Func", with no receiver for methods
	pkg        string // import path of the declaring package
	file       string // absolute path of the declaring file
	start, end int    // lines of the func keyword and the closing brace
}

// module is what the parse pass learns: the annotated regions, and the
// lines a noalloc suppression covers, keyed by absolute file path.
type module struct {
	root       string
	regions    []region
	suppressed map[string]map[int]bool
}

// noteRE matches one compiler diagnostic line: "file.go:line:col: message".
// -m=2 flow-explanation lines reuse the same prefix with an indented
// message, which the indent check below filters out.
var noteRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

func run(dir string, verbose bool, stdout, stderr io.Writer) int {
	m, err := parseModule(dir)
	if err != nil {
		fmt.Fprintf(stderr, "noalloccheck: %v\n", err)
		return 2
	}
	if len(m.regions) == 0 {
		fmt.Fprintln(stderr, "noalloccheck: no iam:noalloc functions in module")
		return 0
	}
	paths := map[string]bool{}
	for _, r := range m.regions {
		paths[r.pkg] = true
	}
	targets := make([]string, 0, len(paths))
	for p := range paths {
		targets = append(targets, p)
	}
	sort.Strings(targets)

	var violations []string
	seen := map[string]bool{}
	checked := 0
	for _, pkg := range targets {
		// Scoping -m=2 to the one package keeps the note volume proportional
		// to what we audit; the build cache replays compiler diagnostics, so
		// warm re-runs stay cheap.
		cmd := exec.Command("go", "build", "-gcflags="+pkg+"=-m=2", pkg)
		cmd.Dir = m.root
		out, err := cmd.CombinedOutput()
		if err != nil {
			fmt.Fprintf(stderr, "noalloccheck: go build %s: %v\n%s", pkg, err, out)
			return 2
		}
		notes := 0
		for _, line := range strings.Split(string(out), "\n") {
			n := noteRE.FindStringSubmatch(line)
			if n == nil || strings.HasPrefix(n[4], " ") {
				continue // package header, or an indented flow explanation
			}
			// -m=2 prints each escape twice: once ending in ":" before its
			// flow explanation, once bare.
			msg := strings.TrimSuffix(n[4], ":")
			if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
				continue
			}
			if strings.Contains(msg, "leaking param") {
				continue // a leak is the caller's allocation, not this site's
			}
			if strings.HasPrefix(msg, `"`) || strings.HasPrefix(msg, "`") {
				// A string literal "escaping" into an interface (panic
				// argument, constant format string) is materialized as
				// read-only static data, not a runtime allocation.
				continue
			}
			file := n[1]
			if !filepath.IsAbs(file) {
				file = filepath.Join(m.root, file)
			}
			lineNo, _ := strconv.Atoi(n[2])
			notes++
			r, ok := m.regionAt(file, lineNo)
			if !ok {
				continue
			}
			checked++
			v := fmt.Sprintf("%s:%s: %s (inside iam:noalloc %s)", n[1], n[2], msg, r.name)
			if m.suppressed[file][lineNo] || seen[v] {
				continue
			}
			seen[v] = true
			violations = append(violations, v)
		}
		if verbose {
			fmt.Fprintf(stderr, "noalloccheck: %s: %d escape note(s)\n", pkg, notes)
		}
	}

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(stdout, v)
		}
		fmt.Fprintf(stderr, "noalloccheck: %d escape note(s) inside iam:noalloc functions without a //lint:ignore noalloc reason\n", len(violations))
		return 1
	}
	fmt.Fprintf(stderr, "noalloccheck: %d package(s), %d region(s), %d in-region note(s), all suppressed with a reason\n",
		len(targets), len(m.regions), checked)
	return 0
}

// regionAt returns the iam:noalloc region containing file:line, if any.
func (m *module) regionAt(file string, line int) (region, bool) {
	for _, r := range m.regions {
		if r.file == file && line >= r.start && line <= r.end {
			return r, true
		}
	}
	return region{}, false
}

// parseModule finds the module enclosing dir and parses its non-test Go
// files, skipping hidden, underscore and testdata directories as the go tool
// does.
func parseModule(dir string) (*module, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no go.mod found above %s", dir)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{root: root, suppressed: map[string]map[int]bool{}}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := modPath
		if rel, _ := filepath.Rel(root, filepath.Dir(path)); rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		m.addFile(fset, f, src, pkg)
		return nil
	})
	return m, err
}

// addFile records one parsed file's iam:noalloc regions and the lines its
// noalloc suppressions cover: the directive's own line and the next line
// holding code, so doc comments and blank lines in between do not break the
// association (the same rule iamlint applies to its own checks).
func (m *module) addFile(fset *token.FileSet, f *ast.File, src []byte, pkg string) {
	path := fset.File(f.Pos()).Name()
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !hasNoAlloc(fd.Doc) {
			continue
		}
		m.regions = append(m.regions, region{
			name:  pkg + "." + fd.Name.Name,
			pkg:   pkg,
			file:  path,
			start: fset.Position(fd.Pos()).Line,
			end:   fset.Position(fd.End()).Line,
		})
	}

	var codeLines []int // sorted: the scanner yields tokens in order
	var s scanner.Scanner
	s.Init(fset.File(f.Pos()), src, nil, 0) // mode 0 skips comments
	for {
		pos, tok, _ := s.Scan()
		if tok == token.EOF {
			break
		}
		if line := fset.Position(pos).Line; len(codeLines) == 0 || codeLines[len(codeLines)-1] != line {
			codeLines = append(codeLines, line)
		}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
			fields := strings.Fields(rest)
			if !ok || len(fields) < 2 || !namesNoAlloc(fields[0]) {
				continue
			}
			line := fset.Position(c.Pos()).Line
			lines := m.suppressed[path]
			if lines == nil {
				lines = map[int]bool{}
				m.suppressed[path] = lines
			}
			lines[line] = true
			if i := sort.SearchInts(codeLines, line+1); i < len(codeLines) {
				lines[codeLines[i]] = true
			}
		}
	}
}

// hasNoAlloc reports whether a doc comment carries the iam:noalloc directive.
func hasNoAlloc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "iam:noalloc" || strings.HasPrefix(text, "iam:noalloc ") {
			return true
		}
	}
	return false
}

// namesNoAlloc reports whether a directive's comma-separated check list
// covers noalloc.
func namesNoAlloc(checks string) bool {
	for _, c := range strings.Split(checks, ",") {
		if c == "noalloc" || c == "all" {
			return true
		}
	}
	return false
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}
