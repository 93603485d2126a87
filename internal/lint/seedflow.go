package lint

import (
	"go/ast"
	"go/types"
)

// seedflow traces RNG seed expressions to their origins. The module's
// reproducibility guarantee (checkpoint/resume must replay identical epochs)
// rests on every rand.NewSource seed being derived from configuration — a
// Config field, a function parameter, or a named constant — so a seed can be
// recorded and replayed. Two origins break that chain and are errors:
//
//   - wall-clock time: time.Now().UnixNano() and friends make every run
//     unique and checkpoint resume a lie;
//   - a bare literal at the call site: rand.NewSource(42) hides the seed from
//     the config layer, so it cannot be swept, logged, or overridden.
//
// The analysis is a bounded backward walk over local single-assignments:
// binary expressions taint from both operands, locals resolve through the
// expressions assigned to them, and parameters, fields, named constants and
// opaque calls are accepted as configuration-reachable. A literal `Seed:`
// field in a composite literal is configuration (an example or benchmark
// fixing its seed on purpose) and is not reported.

type seedOrigin int

const (
	seedOK      seedOrigin = iota // named const, param, field, opaque call
	seedLiteral                   // bare numeric literal
	seedTime                      // derived from package time
)

// AnalyzerSeedFlow enforces config-reachable RNG seeds.
var AnalyzerSeedFlow = &Analyzer{
	Name: "seedflow",
	Doc:  "RNG seeds must be dataflow-reachable from config/parameters, never time.Now() or bare literals",
	Run: func(p *Package) []Diagnostic {
		var out []Diagnostic
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					out = append(out, checkSeedCall(p, f, call)...)
				}
				return true
			})
		}
		return out
	},
}

// checkSeedCall inspects rand.NewSource / rand/v2.NewPCG seed arguments.
func checkSeedCall(p *Package, f *ast.File, call *ast.CallExpr) []Diagnostic {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	pkgPath := usedPackagePath(p, sel)
	name := sel.Sel.Name
	seedArgs := false
	switch {
	case pkgPath == "math/rand" && name == "NewSource":
		seedArgs = true
	case pkgPath == "math/rand/v2" && name == "NewPCG":
		seedArgs = true
	}
	if !seedArgs {
		return nil
	}
	fd := enclosingFuncDecl(f, call)
	var out []Diagnostic
	for _, arg := range call.Args {
		origins := seedOrigins(p, fd, arg, 8, map[types.Object]bool{})
		hasTime, hasOK := false, false
		for _, o := range origins {
			switch o {
			case seedTime:
				hasTime = true
			case seedOK:
				hasOK = true
			}
		}
		switch {
		case hasTime:
			out = append(out, diag(p, "seedflow", arg.Pos(),
				"seed derives from time.Now(); thread it from a config field or parameter so runs are reproducible"))
		case !hasOK:
			out = append(out, diag(p, "seedflow", arg.Pos(),
				"seed is a bare literal; derive it from a config field, parameter or named constant"))
		}
	}
	return out
}

// seedOrigins classifies where the value of e can come from, chasing local
// assignments up to depth steps.
func seedOrigins(p *Package, fd *ast.FuncDecl, e ast.Expr, depth int, seen map[types.Object]bool) []seedOrigin {
	if depth <= 0 {
		return []seedOrigin{seedOK} // give up conservatively: no report
	}
	switch v := e.(type) {
	case *ast.BasicLit:
		return []seedOrigin{seedLiteral}
	case *ast.ParenExpr:
		return seedOrigins(p, fd, v.X, depth, seen)
	case *ast.UnaryExpr:
		return seedOrigins(p, fd, v.X, depth, seen)
	case *ast.StarExpr:
		return []seedOrigin{seedOK}
	case *ast.BinaryExpr:
		out := seedOrigins(p, fd, v.X, depth-1, seen)
		return append(out, seedOrigins(p, fd, v.Y, depth-1, seen)...)
	case *ast.Ident:
		return identSeedOrigins(p, fd, v, depth, seen)
	case *ast.SelectorExpr:
		// A field access (cfg.Seed) or qualified name is config-reachable by
		// definition — unless it is time-tainted.
		if exprTimeTainted(p, fd, v, depth) {
			return []seedOrigin{seedTime}
		}
		return []seedOrigin{seedOK}
	case *ast.CallExpr:
		if exprTimeTainted(p, fd, v, depth) {
			return []seedOrigin{seedTime}
		}
		if tv, ok := p.Info.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			return seedOrigins(p, fd, v.Args[0], depth, seen) // conversion like int64(x)
		}
		return []seedOrigin{seedOK} // opaque call computing a seed
	default:
		return []seedOrigin{seedOK}
	}
}

// identSeedOrigins resolves a plain identifier: named constants, package
// vars, params and fields are configuration; locals chase their assignments.
func identSeedOrigins(p *Package, fd *ast.FuncDecl, id *ast.Ident, depth int, seen map[types.Object]bool) []seedOrigin {
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	if obj == nil || seen[obj] {
		return []seedOrigin{seedOK}
	}
	switch o := obj.(type) {
	case *types.Const:
		return []seedOrigin{seedOK} // named constant: auditable
	case *types.Var:
		if typeIsTime(o.Type()) {
			return []seedOrigin{seedTime}
		}
		if o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
			return []seedOrigin{seedOK} // package-level var
		}
		if isParam(fd, o) {
			return []seedOrigin{seedOK}
		}
		seen[obj] = true
		var out []seedOrigin
		if fd != nil {
			for _, rhs := range assignedExprs(p, fd, o) {
				out = append(out, seedOrigins(p, fd, rhs, depth-1, seen)...)
			}
		}
		if len(out) == 0 {
			return []seedOrigin{seedOK} // range var, closure capture, ...
		}
		return out
	default:
		return []seedOrigin{seedOK}
	}
}

// exprTimeTainted reports whether e is rooted in package time: a call into
// time (time.Now(), time.Since(...)), a method chain on such a call
// (time.Now().UnixNano()), or a variable of type time.Time/Duration.
func exprTimeTainted(p *Package, fd *ast.FuncDecl, e ast.Expr, depth int) bool {
	if depth <= 0 {
		return false
	}
	switch v := e.(type) {
	case *ast.ParenExpr:
		return exprTimeTainted(p, fd, v.X, depth)
	case *ast.CallExpr:
		return exprTimeTainted(p, fd, v.Fun, depth-1)
	case *ast.SelectorExpr:
		if usedPackagePath(p, v) == "time" {
			return true
		}
		return exprTimeTainted(p, fd, v.X, depth-1)
	case *ast.Ident:
		obj := p.Info.Uses[v]
		if o, ok := obj.(*types.Var); ok {
			if typeIsTime(o.Type()) {
				return true
			}
			if fd != nil && !isParam(fd, o) {
				for _, rhs := range assignedExprs(p, fd, o) {
					if exprTimeTainted(p, fd, rhs, depth-1) {
						return true
					}
				}
			}
		}
		return false
	default:
		return false
	}
}

// typeIsTime reports whether t is time.Time or time.Duration.
func typeIsTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "time" &&
		(obj.Name() == "Time" || obj.Name() == "Duration")
}
