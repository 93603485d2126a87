package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// floateq bans exact floating-point equality. `a == b` on floats is almost
// always a latent bug in numerical code — accumulated rounding makes the
// comparison order- and optimization-dependent — so comparisons must go
// through the epsilon helpers vecmath.ApproxEqual / vecmath.ApproxZero,
// whose own bodies are the only allowlisted site of exact comparison.
//
// Severity is split by intent:
//
//   - comparing against a literal/constant zero is a warn: exact-zero tests
//     are sometimes deliberate (sparsity skips in kernels, 0/1 mask checks)
//     and the -severity=warn report keeps them visible;
//   - any other float equality, and any switch on a float tag, is an error.
//
// Where the comparison is genuinely intended, suppress it with
// `//lint:ignore floateq <reason>`. Error-level `==`/`!=` hits carry a
// mechanical suggested fix to vecmath.ApproxEqual when the file can reach it.

// AnalyzerFloatEq forbids exact float comparisons outside the epsilon helpers.
var AnalyzerFloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "no ==/!=/switch on float operands outside vecmath's epsilon helpers",
	Run: func(p *Package) []Diagnostic {
		var out []Diagnostic
		inVecmath := strings.HasSuffix(p.PkgPath, "internal/vecmath")
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && inVecmath && floatEqAllowed(fd.Name.Name) {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch v := n.(type) {
					case *ast.BinaryExpr:
						if d, ok := checkFloatCmp(p, f, v, inVecmath); ok {
							out = append(out, d)
						}
					case *ast.SwitchStmt:
						if v.Tag != nil && isFloat(p, v.Tag) {
							out = append(out, diag(p, "floateq", v.Tag.Pos(),
								"switch on a float tag compares exactly; use explicit epsilon comparisons"))
						}
					}
					return true
				})
			}
		}
		return out
	},
}

// floatEqAllowed lists the vecmath helpers whose bodies may compare exactly.
func floatEqAllowed(name string) bool {
	return name == "ApproxEqual" || name == "ApproxZero"
}

// checkFloatCmp classifies one ==/!= expression.
func checkFloatCmp(p *Package, f *ast.File, be *ast.BinaryExpr, inVecmath bool) (Diagnostic, bool) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return Diagnostic{}, false
	}
	if !isFloat(p, be.X) && !isFloat(p, be.Y) {
		return Diagnostic{}, false
	}
	xv, yv := p.Info.Types[be.X].Value, p.Info.Types[be.Y].Value
	if xv != nil && yv != nil {
		return Diagnostic{}, false // fully constant: evaluated at compile time
	}
	zero := isConstZero(p, be.X) || isConstZero(p, be.Y)
	d := diag(p, "floateq", be.OpPos,
		"exact float comparison (%s); use vecmath.ApproxEqual/ApproxZero or //lint:ignore floateq with a reason", be.Op)
	if zero {
		d.Severity = SeverityWarn
	} else {
		d.Fix = approxEqualFix(p, f, be, inVecmath)
	}
	return d, true
}

// isConstZero reports whether e is a compile-time zero.
func isConstZero(p *Package, e ast.Expr) bool {
	n, ok := constIntOf(p, e)
	if ok && n == 0 {
		return true
	}
	tv, found := p.Info.Types[e]
	if !found || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

// approxEqualFix builds the textual rewrite to vecmath.ApproxEqual when the
// file can reference it (it already imports vecmath, or is vecmath itself).
func approxEqualFix(p *Package, f *ast.File, be *ast.BinaryExpr, inVecmath bool) *Fix {
	qual := "vecmath."
	if inVecmath {
		qual = ""
	} else if !importsPath(f, vecmathPath) {
		return nil
	}
	xs, ok1 := exprSource(p, be.X)
	ys, ok2 := exprSource(p, be.Y)
	if !ok1 || !ok2 {
		return nil
	}
	neg := ""
	if be.Op == token.NEQ {
		neg = "!"
	}
	start := p.Position(be.Pos()).Offset
	end := p.Position(be.End()).Offset
	return &Fix{Start: start, End: end, NewText: neg + qual + "ApproxEqual(" + xs + ", " + ys + ")"}
}

// exprSource slices an expression's exact source text out of the file bytes.
func exprSource(p *Package, e ast.Expr) (string, bool) {
	pos := p.Position(e.Pos())
	end := p.Position(e.End())
	src, ok := p.Src[pos.Filename]
	if !ok || pos.Offset < 0 || end.Offset > len(src) || pos.Offset > end.Offset {
		return "", false
	}
	return string(src[pos.Offset:end.Offset]), true
}

// importsPath reports whether file f imports the given path.
func importsPath(f *ast.File, path string) bool {
	for _, imp := range f.Imports {
		if imp.Path.Value == `"`+path+`"` {
			return true
		}
	}
	return false
}
