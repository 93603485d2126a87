// Package lint implements iamlint, a from-scratch static-analysis engine for
// this module built only on the standard library's go/ast, go/parser and
// go/types packages — matching the module's zero-dependency ethos.
//
// The engine loads every package in the module (parsing in parallel and
// type-checking from source), then runs six analyzers over it. Each encodes
// one IAM-specific invariant whose silent violation would undermine the
// estimator: library code returns errors instead of panicking, RNG draws
// come from a seeded generator, persisted state is written crash-safely,
// long training loops are cancellable, writer Close errors are checked, and
// float accumulation does not follow map order.
//
// Every analyzer is a syntactic, per-package pass over the typed AST.
// Locking, seed reproducibility, layer shapes and numerical safety are
// checked by executed tests instead: the -race tests, the same-seed
// bit-identity tests, the constructors' and loaders' own validation, and the
// fuzz targets.
//
// Every diagnostic fails the run. Run is the one driver: load the module,
// analyze, report.
//
// Diagnostics can be suppressed per line with a comment of the form
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// placed on the offending line or above the statement it suppresses (blank
// lines and further comments between the directive and the statement are
// skipped). The reason is mandatory: a suppression without one is itself
// reported. The check name "noalloc" is accepted as well: cmd/noalloccheck
// reads those directives against the compiler's escape analysis.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"sync"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message string `json:"message"`
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Column, d.Message, d.Check)
}

// Package is one loaded, type-checked package presented to analyzers.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// Src maps each file's full path to its source bytes, read by the
	// suppression scanner.
	Src map[string][]byte
}

// Position resolves a token.Pos against the package's file set.
func (p *Package) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// Analyzer is one pluggable invariant check: Run is a per-package pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Diagnostic
}

// diag is a helper for analyzers to build a Diagnostic at a position.
func diag(p *Package, check string, pos token.Pos, format string, args ...any) Diagnostic {
	ps := p.Position(pos)
	return Diagnostic{
		Check:   check,
		File:    ps.Filename,
		Line:    ps.Line,
		Column:  ps.Column,
		Message: fmt.Sprintf(format, args...),
	}
}

// Analyzers returns the full shipped analyzer set in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerNoPanic,
		AnalyzerGlobalRand,
		AnalyzerAtomicWrite,
		AnalyzerCtxTrain,
		AnalyzerCloseCheck,
		AnalyzerMapRange,
	}
}

// AnalyzerByName resolves a check name; nil if unknown.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// runPackage applies analyzers to one package and post-processes the result:
// //lint:ignore suppression, malformed-directive reports.
func runPackage(p *Package, analyzers []*Analyzer) []Diagnostic {
	sup := collectSuppressions(p)
	var out []Diagnostic
	for _, a := range analyzers {
		for _, d := range a.Run(p) {
			if !sup.covers(d) {
				out = append(out, d)
			}
		}
	}
	return append(out, sup.malformed...)
}

// Run lints the packages of dir's module that match patterns (every package
// when patterns is empty). The whole module is loaded, because the matched
// packages are type-checked against their imports from source.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	all, err := l.LoadAll()
	if err != nil {
		return nil, err
	}
	targets, err := l.match(all, patterns)
	if err != nil {
		return nil, err
	}
	return RunAnalyzers(targets, analyzers), nil
}

// RunAnalyzers applies the given analyzers to every package concurrently
// (one worker per CPU), applies //lint:ignore suppressions, and returns the
// surviving diagnostics sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	perPkg := make([][]Diagnostic, len(pkgs))
	parallel(len(pkgs), func(i int) { perPkg[i] = runPackage(pkgs[i], analyzers) })
	var out []Diagnostic
	for _, ds := range perPkg {
		out = append(out, ds...)
	}
	SortDiagnostics(out)
	return out
}

// parallel calls f(0), ..., f(n-1) on a pool of one worker per CPU and
// returns when every call has finished.
func parallel(n int, f func(i int)) {
	workers := min(runtime.NumCPU(), n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// SortDiagnostics orders diagnostics by file, line, column, then check name.
func SortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Column != out[j].Column {
			return out[i].Column < out[j].Column
		}
		return out[i].Check < out[j].Check
	})
}
