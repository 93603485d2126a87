package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// summary.go extracts the per-package fact summaries that power the v3
// interprocedural analyzers (lockorder, goleak, atomicver, noalloc). Each
// function — and each function literal, as a separate unit — is reduced to a
// FuncFacts record: the static calls it makes (with the lock set held at each
// call site), the locks it acquires (with the set held at acquisition), the
// goroutines it spawns, the struct-field writes it performs, the allocation
// sites a types-based heuristic can see, and the join signals it emits
// (WaitGroup.Done, channel send/close/receive, ctx.Done selects).
//
// Summaries deliberately contain no token.Pos or types.Object values:
// positions are (file, line, col) triples and every object reference is
// canonicalized to a string class, so the module-level pass can join facts
// from different packages by plain string comparison.
//
// Class canonicalization:
//
//	struct field      "pkg/path.Type.field"
//	package-level var "pkg/path.var"
//	local variable    "local name in <unit-id>"
//	parameter         "param" (ownership lies with the caller)
//
// Function unit IDs are "pkg/path.Func" for functions,
// "(*pkg/path.Type).Method" for methods and "<parent-id>$<n>" for the n-th
// function literal inside a parent unit (source order).

const (
	noallocDirective       = "iam:noalloc"
	detachedDirective      = "iam:detached"
	lockorderDirective     = "iam:lockorder"
	deterministicDirective = "iam:deterministic"
	detsourceDirective     = "iam:detsource"
	numsafeDirective       = "iam:numsafe"
)

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
	Held   []string // lock classes held at the call
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

// NondetFact is one nondeterminism source observed in a unit body: a
// wall-clock read, a global/unseeded RNG draw, an order-sensitive map
// iteration, a multi-way select, pointer-identity formatting, or (kind
// "fpreduce", significant only in spawned units) an order-dependent
// floating-point accumulation into state shared with other goroutines.
type NondetFact struct {
	Kind   string
	Detail string
	Pos    Pos
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

// AcquireFact is one mutex acquisition.
type AcquireFact struct {
	Class string
	Expr  string // source text of the mutex expression
	RLock bool
	Pos   Pos
	Held  []string // classes already held
	// HeldSame lists the expression texts of already-held locks of the same
	// class: an identical text is a guaranteed self-deadlock.
	HeldSame []string
}

// SpawnFact is one `go` statement.
type SpawnFact struct {
	Pos Pos
	// Callees names the spawned unit: the function literal's unit ID or the
	// statically resolved callee. Empty when the call is dynamic.
	Callees      []string
	Detached     bool
	DetachReason string
}

// WriteFact is one struct-field write (assignment or ++/--).
type WriteFact struct {
	Type  string // owning struct class "pkg.T"
	Field string
	Pos   Pos
	Fresh bool // base constructed in this function
	// HeldSiblings lists mutex fields of Type whose class was held at the
	// write — evidence for a mechanical iam:guardedby annotation fix.
	HeldSiblings []string
}

// AllocFact is one heuristic allocation site.
type AllocFact struct {
	What string
	Pos  Pos
}

// FuncFacts is the summary of one function or function-literal unit.
type FuncFacts struct {
	ID      string
	Pos     Pos
	EndLine int
	NoAlloc bool

	// Deterministic marks an iam:deterministic contract root: no path from
	// this unit may reach a nondeterminism source except through a declared
	// iam:detsource sanitizer.
	Deterministic bool
	// DetSource marks an iam:detsource sanitizer (with its mandatory reason):
	// detflow's taint walk stops here.
	DetSource bool
	DetReason string
	// NumSafe marks an iam:numsafe contract root for numflow.
	NumSafe bool
	// ReturnsValidated: every return path provably yields a positive value
	// (positive constant, clamp above a positive constant, guarded variable),
	// so callers may treat the result as validated.
	ReturnsValidated bool

	Calls    []CallFact
	Acquires []AcquireFact
	Spawns   []SpawnFact
	Writes   []WriteFact
	Allocs   []AllocFact
	Nondets  []NondetFact
	NumSinks []NumSink

	// Signals are the join signals this body emits when run as a goroutine:
	// "wg:C" (WaitGroup C Done), "send:C" (send/close on channel C),
	// "recv:C" (receive on channel C), "ctx" (selects on a Done channel),
	// "param" (signals through a caller-owned parameter).
	Signals []string
	// Join-side facts, unioned module-wide by goleak: WaitGroup classes
	// Wait()ed on, channel classes received from, channel classes closed.
	Waits  []string
	Recvs  []string
	Closes []string
}

// OrderFact is one `iam:lockorder A > B` declaration: A may be held while
// acquiring B, never the reverse.
type OrderFact struct {
	Before string
	After  string
	Pos    Pos
}

// FieldFact describes one field of an atomic.Pointer-published struct that
// is declared in the same package, carrying what a mechanical annotation fix
// needs.
type FieldFact struct {
	Type      string
	Field     string
	Pos       Pos
	EndOffset int // byte offset just after the field type
	// HasComment blocks the fix: appending to an existing trailing comment
	// is not mechanically safe.
	HasComment bool
	Mutexes    []string // sibling mutex field names
}

// PkgFacts is one package's full summary.
type PkgFacts struct {
	PkgPath string
	Funcs   []*FuncFacts
	Orders  []OrderFact
	// Published lists struct classes stored in an atomic.Pointer[T] field or
	// variable of this package.
	Published []string
	// Guarded maps field classes to their guarding mutex class, taken from
	// the same field annotations the guardedby analyzer enforces.
	Guarded map[string]string
	Fields  []FieldFact
}

// classOfNamed is the canonical class of a named type.
func classOfNamed(tn *types.TypeName) string {
	if tn.Pkg() == nil {
		return tn.Name()
	}
	return tn.Pkg().Path() + "." + tn.Name()
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
			return "(" + prefix + classOfNamed(named.Obj()) + ")." + fn.Name()
		}
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// hasDirective reports whether a comment group carries the bare directive,
// and returns the remainder of its line.
func hasDirective(cg *ast.CommentGroup, directive string) (string, bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
		text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
		if text == directive {
			return "", true
		}
		if rest, ok := strings.CutPrefix(text, directive+" "); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// SummarizePackage reduces one loaded package to its fact summary.
func SummarizePackage(p *Package) *PkgFacts {
	pf := &PkgFacts{PkgPath: p.PkgPath, Guarded: map[string]string{}}
	anns, _ := collectGuarded(p) // annotation-shape diags belong to guardedby
	for obj, g := range anns {
		if g.owner != nil {
			owner := classOfNamed(g.owner)
			pf.Guarded[owner+"."+obj.Name()] = owner + "." + g.mutex
		} else {
			pf.Guarded[p.PkgPath+"."+obj.Name()] = p.PkgPath + "." + g.mutex
		}
	}
	collectPublished(p, pf)
	collectLockOrders(p, pf)
	detached := detachedComments(p)

	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			summarizeDecl(p, pf, fd, anns, detached)
		}
	}
	sort.Slice(pf.Funcs, func(i, j int) bool { return pf.Funcs[i].ID < pf.Funcs[j].ID })
	return pf
}

// detachedComments maps "file:line" to the reason text of iam:detached
// directives; an annotated line with an empty reason maps to "".
func detachedComments(p *Package) map[string]string {
	out := map[string]string{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
				text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
				rest, ok := strings.CutPrefix(text, detachedDirective)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				ps := p.Position(c.Pos())
				out[keyLine(ps.Filename, ps.Line)] = strings.TrimSpace(rest)
			}
		}
	}
	return out
}

func keyLine(file string, line int) string {
	return file + ":" + itoa(line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// collectLockOrders gathers iam:lockorder declarations from every comment in
// the package. The operands resolve within the declaring package:
// "Type.field" names a mutex field, a bare name a package-level mutex.
func collectLockOrders(p *Package, pf *PkgFacts) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
				text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
				rest, ok := strings.CutPrefix(text, lockorderDirective+" ")
				if !ok {
					continue
				}
				parts := strings.Split(rest, ">")
				if len(parts) != 2 {
					continue
				}
				before := strings.TrimSpace(parts[0])
				for _, after := range strings.Split(parts[1], "/") {
					after = strings.TrimSpace(after)
					if before == "" || after == "" {
						continue
					}
					pf.Orders = append(pf.Orders, OrderFact{
						Before: p.PkgPath + "." + before,
						After:  p.PkgPath + "." + after,
						Pos:    posOf(p, c.Pos()),
					})
				}
			}
		}
	}
}

// collectPublished finds atomic.Pointer[T] fields and variables and records
// T as a published class; for published structs declared in this same
// package it also records per-field annotation-fix metadata.
func collectPublished(p *Package, pf *PkgFacts) {
	published := map[string]bool{}
	record := func(t types.Type) {
		named, ok := t.(*types.Named)
		if !ok {
			return
		}
		obj := named.Obj()
		if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" || obj.Name() != "Pointer" {
			return
		}
		args := named.TypeArgs()
		if args == nil || args.Len() != 1 {
			return
		}
		arg := args.At(0)
		if ptr, isPtr := arg.(*types.Pointer); isPtr {
			arg = ptr.Elem()
		}
		argNamed, ok := arg.(*types.Named)
		if !ok {
			return
		}
		if _, isStruct := argNamed.Underlying().(*types.Struct); !isStruct {
			return
		}
		published[classOfNamed(argNamed.Obj())] = true
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.Field:
				if tv, ok := p.Info.Types[v.Type]; ok {
					record(tv.Type)
				}
			case *ast.ValueSpec:
				if v.Type != nil {
					if tv, ok := p.Info.Types[v.Type]; ok {
						record(tv.Type)
					}
				}
			}
			return true
		})
	}
	for cls := range published {
		pf.Published = append(pf.Published, cls)
	}
	sort.Strings(pf.Published)

	// Field metadata for same-package published structs.
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				cls := p.PkgPath + "." + ts.Name.Name
				if !published[cls] {
					continue
				}
				var mutexes []string
				for _, field := range st.Fields.List {
					if tv, ok := p.Info.Types[field.Type]; ok && isMutexType(tv.Type) {
						for _, name := range field.Names {
							mutexes = append(mutexes, name.Name)
						}
					}
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						pf.Fields = append(pf.Fields, FieldFact{
							Type:       cls,
							Field:      name.Name,
							Pos:        posOf(p, field.Pos()),
							EndOffset:  p.Position(field.Type.End()).Offset,
							HasComment: field.Comment != nil,
							Mutexes:    mutexes,
						})
					}
				}
			}
		}
	}
}
