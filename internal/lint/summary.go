package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// summary.go extracts the per-package fact summaries numflow runs over. Each
// function — and each function literal, as a separate unit — is reduced to a
// FuncFacts record: the static calls it makes (with the numeric guard state
// of each float argument), the numeric sinks its body could not prove
// guarded, and whether every return path yields a provably positive value.
//
// Summaries deliberately contain no token.Pos or types.Object values:
// positions are (file, line, col) triples and callees are unit-ID strings,
// so the module-level pass joins facts from different packages by plain
// string comparison. Function unit IDs are "pkg/path.Func" for functions,
// "(*pkg/path.Type).Method" for methods and "<parent-id>$<n>" for the n-th
// function literal inside a parent unit (source order).

const numsafeDirective = "iam:numsafe"

// Pos is a resolved source position.
type Pos struct {
	File string
	Line int
	Col  int
}

func posOf(p *Package, pos token.Pos) Pos {
	ps := p.Position(pos)
	return Pos{File: ps.Filename, Line: ps.Line, Col: ps.Column}
}

// CallFact is one statically resolved call site.
type CallFact struct {
	Callee string
	Pos    Pos
	// Args records the numeric-guard state of float-typed arguments at this
	// call site, for numflow's interprocedural must-positive propagation.
	Args []CallArg
}

// CallArg is the numeric-flow view of one float-typed call argument.
type CallArg struct {
	// Index is the argument's position, which is also the callee's value
	// parameter index (variadic tails are not recorded).
	Index int
	// Param is the index of the *caller's* parameter the argument forwards
	// unchanged, or -1 when the argument is any other expression.
	Param int
	// State is the guardState bit set the caller's must-analysis proved for
	// the argument at the call site (see taint.go).
	State int
	Expr  string
}

// NumSink is one numeric-safety sink (math.Log/Exp/Sqrt operand, float
// divisor) that the intraprocedural must-analysis could NOT prove guarded.
// Guarded sinks are never recorded.
type NumSink struct {
	Op      string // "math.Log", "math.Sqrt", "math.Exp", "division"
	Operand string // source text of the unguarded operand
	// Param is the enclosing unit's value-parameter index the operand
	// resolves to, or -1. Param sinks are not local findings: they become
	// must-positive obligations checked at call sites.
	Param int
	// Callee, when set, names the unit whose return value feeds the operand;
	// the sink is discharged if that unit's summary says ReturnsValidated.
	Callee string
	Pos    Pos
}

// FuncFacts is the summary of one function or function-literal unit.
type FuncFacts struct {
	ID string
	// NumSafe marks an iam:numsafe contract root for numflow.
	NumSafe bool
	// ReturnsValidated: every return path provably yields a positive value
	// (positive constant, clamp above a positive constant, guarded variable),
	// so callers may treat the result as validated.
	ReturnsValidated bool

	Calls    []CallFact
	NumSinks []NumSink
}

// PkgFacts is one package's full summary.
type PkgFacts struct {
	PkgPath string
	Funcs   []*FuncFacts
}

// funcID canonicalizes a function object to its unit ID.
func funcID(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		prefix := ""
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
			prefix = "*"
		}
		if named, isNamed := t.(*types.Named); isNamed {
			obj := named.Obj()
			cls := obj.Name()
			if obj.Pkg() != nil {
				cls = obj.Pkg().Path() + "." + cls
			}
			return "(" + prefix + cls + ")." + fn.Name()
		}
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// hasDirective reports whether a comment group carries the bare directive.
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
		text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// summarizePackage reduces one loaded package to its fact summary.
func summarizePackage(p *Package) *PkgFacts {
	pf := &PkgFacts{PkgPath: p.PkgPath}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				summarizeDecl(p, pf, fd)
			}
		}
	}
	sort.Slice(pf.Funcs, func(i, j int) bool { return pf.Funcs[i].ID < pf.Funcs[j].ID })
	return pf
}

// summarizeDecl summarizes fd and each function literal it contains as
// separate units, appending them to pf.Funcs.
func summarizeDecl(p *Package, pf *PkgFacts, fd *ast.FuncDecl) {
	id := p.PkgPath + "." + fd.Name.Name
	if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
		id = funcID(fn)
	}
	// Flat source-order numbering of every literal in the declaration, so
	// call edges from any unit of the decl resolve consistently.
	litIDs := map[*ast.FuncLit]string{}
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		if fl, ok := node.(*ast.FuncLit); ok {
			litIDs[fl] = id + "$" + strconv.Itoa(len(litIDs)+1)
		}
		return true
	})

	main := &FuncFacts{ID: id, NumSafe: hasDirective(fd.Doc, numsafeDirective)}
	main.Calls = collectCalls(p, fd.Body, litIDs)
	taintUnit(p, main, fd.Body, fd.Type)
	pf.Funcs = append(pf.Funcs, main)
	for fl, litID := range litIDs {
		lu := &FuncFacts{ID: litID, Calls: collectCalls(p, fl.Body, litIDs)}
		taintUnit(p, lu, fl.Body, fl.Type)
		pf.Funcs = append(pf.Funcs, lu)
	}
}

// collectCalls lists the statically resolved calls one unit body makes, in
// source order: calls of declared functions and methods, and direct calls of
// the unit's own function literals (IIFEs, deferred closures). Nested
// literals are separate units, and the call a `go` statement spawns runs on
// another goroutine, so neither contributes edges (the spawned call's
// arguments are still evaluated here).
func collectCalls(p *Package, body *ast.BlockStmt, litIDs map[*ast.FuncLit]string) []CallFact {
	var calls []CallFact
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			for _, arg := range v.Call.Args {
				ast.Inspect(arg, visit)
			}
			return false
		case *ast.CallExpr:
			callee := ""
			if fl, ok := ast.Unparen(v.Fun).(*ast.FuncLit); ok {
				callee = litIDs[fl]
			} else if fn := staticCallee(p, v); fn != nil {
				callee = funcID(fn)
			}
			if callee != "" {
				calls = append(calls, CallFact{Callee: callee, Pos: posOf(p, v.Pos())})
			}
		}
		return true
	}
	ast.Inspect(body, visit)
	return calls
}
