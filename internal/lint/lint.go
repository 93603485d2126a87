// Package lint implements iamlint, a from-scratch static-analysis engine for
// this module built only on the standard library's go/ast, go/parser and
// go/types packages — matching the module's zero-dependency ethos.
//
// The engine loads every package in the module (parsing in parallel and
// type-checking from source), then runs a pluggable set of analyzers
// concurrently. Each analyzer encodes one IAM-specific invariant whose silent
// violation would undermine the estimator's correctness guarantees:
// determinism of checkpoint/resume, unbiasedness of progressive sampling,
// crash-safety of persisted state, cancellation of long training loops,
// mutex discipline on shared inference state, seed provenance, layer-shape
// consistency, float-comparison hygiene and error-wrapping at package
// boundaries.
//
// Beyond the original purely syntactic checks, the v2 analyzers are dataflow
// aware: guardedby walks a per-function control-flow graph (cfg.go) tracking
// which mutexes are definitely held, seedflow traces RNG seed expressions to
// their origins, and shapecheck constant-propagates matrix and layer
// dimensions through constructor chains. The v3 analyzers (lockorder, goleak,
// atomicver, noalloc) are interprocedural, running over a module-wide fact
// database of per-function summaries; the v4 analyzers (detflow, numflow)
// extend those summaries with taint facts to enforce the iam:deterministic
// and iam:numsafe contracts with witness call paths.
//
// Diagnostics carry a severity (error or warn) and may carry a mechanically
// safe suggested fix (applied by `iamlint -fix`). Run is the one driver:
// load the module, analyze, report.
//
// Diagnostics can be suppressed per line with a comment of the form
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// placed on the offending line or above the statement it suppresses (blank
// lines and further comments between the directive and the statement are
// skipped). The reason is mandatory: a suppression without one is itself
// reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
)

// Severity classifies how a diagnostic affects the build: error-severity
// findings fail the lint run, warn-severity findings are reported only when
// asked for (iamlint -severity=warn; CI's JSON artifact) and never block.
type Severity string

const (
	SeverityError Severity = "error"
	SeverityWarn  Severity = "warn"
)

// Fix is a mechanically safe textual rewrite attached to a diagnostic,
// applied by `iamlint -fix`. Offsets are byte offsets into the file named by
// the diagnostic.
type Fix struct {
	Start   int    `json:"start"`
	End     int    `json:"end"`
	NewText string `json:"newText"`
}

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Check    string   `json:"check"`
	Severity Severity `json:"severity"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Column   int      `json:"column"`
	Message  string   `json:"message"`
	Fix      *Fix     `json:"fix,omitempty"`
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
	// Src maps each file's full path to its source bytes, shared by the
	// suppression scanner and -fix.
	Src map[string][]byte
}

// Position resolves a token.Pos against the package's file set.
func (p *Package) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// Analyzer is one pluggable invariant check. DefaultSeverity (error when
// empty) applies to diagnostics the analyzer emits without an explicit
// severity of their own. Exactly one of Run and RunModule is set: Run is a
// per-package pass; RunModule is an interprocedural pass over the
// module-wide fact database (summary.go, module.go) and runs once per lint
// invocation.
type Analyzer struct {
	Name            string
	Doc             string
	DefaultSeverity Severity
	Run             func(p *Package) []Diagnostic
	RunModule       func(m *ModuleFacts) []Diagnostic
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

// Analyzers returns the full shipped analyzer set in a stable order: the six
// syntactic v1 checks, the five dataflow-aware v2 checks, the four
// interprocedural v3 checks, then the two v4 taint-flow contract checks.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerNoPanic,
		AnalyzerGlobalRand,
		AnalyzerAtomicWrite,
		AnalyzerCtxTrain,
		AnalyzerCloseCheck,
		AnalyzerMapRange,
		AnalyzerGuardedBy,
		AnalyzerSeedFlow,
		AnalyzerShapeCheck,
		AnalyzerFloatEq,
		AnalyzerErrWrap,
		AnalyzerLockOrder,
		AnalyzerGoLeak,
		AnalyzerAtomicVer,
		AnalyzerNoAlloc,
		AnalyzerDetFlow,
		AnalyzerNumFlow,
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
// severity defaults, //lint:ignore suppression, malformed-directive reports.
func runPackage(p *Package, analyzers []*Analyzer) []Diagnostic {
	sup := collectSuppressions(p)
	var out []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue // module analyzers run once, not per package
		}
		sev := a.DefaultSeverity
		if sev == "" {
			sev = SeverityError
		}
		for _, d := range a.Run(p) {
			if d.Severity == "" {
				d.Severity = sev
			}
			if sup.covers(d) {
				continue
			}
			out = append(out, d)
		}
	}
	for _, d := range sup.malformed {
		d.Severity = SeverityError
		out = append(out, d)
	}
	return out
}

// Run lints the packages of dir's module that match patterns (every package
// when patterns is empty). The whole module is loaded once: per-package
// analyzers run on the matched packages, and interprocedural analyzers run
// over the whole module's facts with their findings kept only where they
// fall inside a matched package.
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
	out := runPerPackage(targets, analyzers)
	if hasModuleAnalyzers(analyzers) {
		dirs := map[string]bool{}
		for _, p := range targets {
			dirs[p.Dir] = true
		}
		for _, d := range RunModuleAnalyzers(all, BuildModuleFacts(all), analyzers) {
			if dirs[filepath.Dir(d.File)] {
				out = append(out, d)
			}
		}
	}
	SortDiagnostics(out)
	return out, nil
}

// RunAnalyzers applies the given analyzers to every package concurrently
// (one worker per CPU), applies //lint:ignore suppressions, and returns the
// surviving diagnostics sorted by position. Interprocedural analyzers in
// the set run once over a fact database built from exactly these packages —
// pass the whole module (LoadAll) for their findings to be complete.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	out := runPerPackage(pkgs, analyzers)
	if hasModuleAnalyzers(analyzers) {
		out = append(out, RunModuleAnalyzers(pkgs, BuildModuleFacts(pkgs), analyzers)...)
	}
	SortDiagnostics(out)
	return out
}

// runPerPackage runs the per-package (Run) analyzers over pkgs with a CPU
// worker pool and returns the surviving diagnostics, unsorted.
func runPerPackage(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	perPkg := make([][]Diagnostic, len(pkgs))
	workers := runtime.NumCPU()
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				perPkg[i] = runPackage(pkgs[i], analyzers)
			}
		}()
	}
	for i := range pkgs {
		next <- i
	}
	close(next)
	wg.Wait()

	var out []Diagnostic
	for _, ds := range perPkg {
		out = append(out, ds...)
	}
	return out
}

// hasModuleAnalyzers reports whether any analyzer in the set is an
// interprocedural (RunModule) pass.
func hasModuleAnalyzers(analyzers []*Analyzer) bool {
	for _, a := range analyzers {
		if a.RunModule != nil {
			return true
		}
	}
	return false
}

// RunModuleAnalyzers applies the interprocedural analyzers to the module
// fact database. The packages are only needed for //lint:ignore suppression
// scanning. The result is NOT sorted — callers merge it with per-package
// diagnostics first.
func RunModuleAnalyzers(pkgs []*Package, m *ModuleFacts, analyzers []*Analyzer) []Diagnostic {
	sups := make([]*suppressions, len(pkgs))
	for i, p := range pkgs {
		sups[i] = collectSuppressions(p)
	}
	covered := func(d Diagnostic) bool {
		for _, sup := range sups {
			if sup.covers(d) {
				return true
			}
		}
		return false
	}
	var out []Diagnostic
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		sev := a.DefaultSeverity
		if sev == "" {
			sev = SeverityError
		}
		for _, d := range a.RunModule(m) {
			if d.Severity == "" {
				d.Severity = sev
			}
			if covered(d) {
				continue
			}
			out = append(out, d)
		}
	}
	return out
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

// MaxSeverity returns the highest severity present in diags (error > warn),
// or "" when diags is empty.
func MaxSeverity(diags []Diagnostic) Severity {
	var max Severity
	for _, d := range diags {
		if d.Severity == SeverityError {
			return SeverityError
		}
		max = SeverityWarn
	}
	return max
}

// FilterSeverity returns the diagnostics at or above the minimum severity:
// SeverityWarn keeps everything, SeverityError keeps only errors.
func FilterSeverity(diags []Diagnostic, min Severity) []Diagnostic {
	if min != SeverityError {
		return diags
	}
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity == SeverityError {
			out = append(out, d)
		}
	}
	return out
}
