package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// taint.go is the per-unit numeric must-analysis behind numflow. It fills a
// FuncFacts record's NumSinks and the Args of its CallFacts: a
// math.Log/Exp/Sqrt operand or float divisor that every path provably guards
// is dropped here; what remains is either a local finding, a caller
// obligation (Param >= 0), or a return-value dependency (Callee) discharged
// interprocedurally.
//
// The must-analysis is branch-sensitive over the statement tree: conditions
// contribute guard bits (positive / non-negative / non-zero / bounded) on
// the true and false edges, terminating branches leave the complementary
// facts in force, joins intersect, and assignments kill. Loops are handled
// conservatively by killing every name assigned in the body before walking
// it, so only guards that survive an arbitrary iteration count remain.

// guardState bits: what the must-analysis has proved about a value.
const (
	gPositive = 1 << iota // provably > 0
	gNonNeg               // provably >= 0
	gNonZero              // provably != 0
	gBounded              // provably not NaN / not +Inf
)

// normBits closes a bit set under implication (positive => non-negative and
// non-zero).
func normBits(bits int) int {
	if bits&gPositive != 0 {
		bits |= gNonNeg | gNonZero
	}
	return bits
}

// sinkGuarded reports whether the proved bits discharge a sink of this op.
func sinkGuarded(op string, bits int) bool {
	switch op {
	case "math.Log", "math.Log2", "math.Log10":
		return bits&gPositive != 0
	case "math.Sqrt":
		return bits&(gPositive|gNonNeg) != 0
	case "math.Exp", "math.Exp2":
		return bits != 0
	case "division":
		return bits&(gNonZero|gPositive) != 0
	}
	return false
}

// taintUnit runs the numeric must-analysis over one unit body.
func taintUnit(p *Package, ff *FuncFacts, body *ast.BlockStmt, ft *ast.FuncType) {
	w := &numWalker{
		p:           p,
		ff:          ff,
		params:      valueParamIndex(p, ft),
		floatResult: singleFloatResult(p, ft),
		retAll:      true,
	}
	w.indexCalls()
	g := map[string]numState{}
	w.walkStmt(body, g)
	ff.ReturnsValidated = w.floatResult && w.sawRet && w.retAll
}

// numState is what the walker knows about one value: proved guard bits and,
// for static call results, the callee whose summary may discharge the sink.
type numState struct {
	bits   int
	origin string
}

type numWalker struct {
	p           *Package
	ff          *FuncFacts
	params      map[types.Object]int
	callIdx     map[Pos]*CallFact
	floatResult bool
	sawRet      bool
	retAll      bool
}

// indexCalls maps call-site positions to the CallFacts collectCalls already
// recorded, so arg states attach to the existing edges.
func (w *numWalker) indexCalls() {
	w.callIdx = make(map[Pos]*CallFact, len(w.ff.Calls))
	for i := range w.ff.Calls {
		w.callIdx[w.ff.Calls[i].Pos] = &w.ff.Calls[i]
	}
}

func copyNum(g map[string]numState) map[string]numState {
	out := make(map[string]numState, len(g))
	for k, v := range g {
		out[k] = v
	}
	return out
}

func assignNum(dst, src map[string]numState) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// meetNum intersects branch exit states into dst.
func meetNum(dst map[string]numState, states ...map[string]numState) {
	if len(states) == 0 {
		return
	}
	res := copyNum(states[0])
	for _, s := range states[1:] {
		for k, v := range res {
			sv, ok := s[k]
			if !ok {
				delete(res, k)
				continue
			}
			v.bits &= sv.bits
			if v.origin != sv.origin {
				v.origin = ""
			}
			if v.bits == 0 && v.origin == "" {
				delete(res, k)
				continue
			}
			res[k] = v
		}
	}
	assignNum(dst, res)
}

func addFact(m map[string]int, key string, bits int) {
	if key == "" || bits == 0 {
		return
	}
	m[key] |= normBits(bits)
}

func applyFacts(g map[string]numState, facts map[string]int) {
	for k, bits := range facts {
		st := g[k]
		st.bits = normBits(st.bits | bits)
		g[k] = st
	}
}

// mentionsIdent reports whether the guard-map key mentions name as a whole
// word — used to kill derived facts ("len(xs)", "wSum[j]") on assignment.
func mentionsIdent(key, name string) bool {
	for i := 0; i+len(name) <= len(key); i++ {
		if key[i:i+len(name)] != name {
			continue
		}
		beforeOK := i == 0 || !identByte(key[i-1])
		after := i + len(name)
		afterOK := after == len(key) || !identByte(key[after])
		if beforeOK && afterOK {
			return true
		}
	}
	return false
}

func identByte(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

func killIdent(g map[string]numState, name string) {
	if name == "" || name == "_" {
		return
	}
	for k := range g {
		if mentionsIdent(k, name) {
			delete(g, k)
		}
	}
}

func (w *numWalker) killLHS(g map[string]numState, l ast.Expr) {
	if id := rootIdent(l); id != nil {
		killIdent(g, id.Name)
		return
	}
	delete(g, types.ExprString(ast.Unparen(l)))
}

func (w *numWalker) setVar(g map[string]numState, l ast.Expr, st numState) {
	l = ast.Unparen(l)
	switch l.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
	default:
		return
	}
	if id, ok := l.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	if st.bits == 0 && st.origin == "" {
		return
	}
	g[types.ExprString(l)] = st
}

// assignedRootNames collects every identifier root assigned anywhere under n
// (including nested literals — conservative), for loop pre-kills.
func assignedRootNames(n ast.Node) map[string]bool {
	out := map[string]bool{}
	add := func(e ast.Expr) {
		if id := rootIdent(e); id != nil && id.Name != "_" {
			out[id.Name] = true
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch v := m.(type) {
		case *ast.AssignStmt:
			for _, l := range v.Lhs {
				add(l)
			}
		case *ast.IncDecStmt:
			add(v.X)
		case *ast.RangeStmt:
			if v.Key != nil {
				add(v.Key)
			}
			if v.Value != nil {
				add(v.Value)
			}
		}
		return true
	})
	return out
}

// walkStmt walks one statement with the current guard state; the return
// value reports whether the statement definitely terminates the enclosing
// statement list (return / panic / branch).
func (w *numWalker) walkStmt(s ast.Stmt, g map[string]numState) bool {
	p := w.p
	switch v := s.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		for _, st := range v.List {
			if w.walkStmt(st, g) {
				return true
			}
		}
		return false
	case *ast.LabeledStmt:
		return w.walkStmt(v.Stmt, g)
	case *ast.IfStmt:
		if v.Init != nil {
			w.walkStmt(v.Init, g)
		}
		w.scanExpr(v.Cond, g)
		tf, ef := w.condFacts(v.Cond)
		gThen := copyNum(g)
		applyFacts(gThen, tf)
		termThen := w.walkStmt(v.Body, gThen)
		gElse := copyNum(g)
		applyFacts(gElse, ef)
		termElse := false
		if v.Else != nil {
			termElse = w.walkStmt(v.Else, gElse)
		}
		switch {
		case termThen && termElse:
			return true
		case termThen:
			assignNum(g, gElse)
		case termElse:
			assignNum(g, gThen)
		default:
			meetNum(g, gThen, gElse)
		}
		return false
	case *ast.ForStmt:
		if v.Init != nil {
			w.walkStmt(v.Init, g)
		}
		killed := assignedRootNames(v)
		gBody := copyNum(g)
		for name := range killed {
			killIdent(gBody, name)
		}
		if v.Cond != nil {
			w.scanExpr(v.Cond, gBody)
			tf, _ := w.condFacts(v.Cond)
			applyFacts(gBody, tf)
		}
		w.walkStmt(v.Body, gBody)
		if v.Post != nil {
			w.walkStmt(v.Post, gBody)
		}
		for name := range killed {
			killIdent(g, name)
		}
		return false
	case *ast.RangeStmt:
		w.scanExpr(v.X, g)
		killed := assignedRootNames(v)
		gBody := copyNum(g)
		for name := range killed {
			killIdent(gBody, name)
		}
		w.walkStmt(v.Body, gBody)
		for name := range killed {
			killIdent(g, name)
		}
		return false
	case *ast.SwitchStmt:
		if v.Init != nil {
			w.walkStmt(v.Init, g)
		}
		if v.Tag != nil {
			w.scanExpr(v.Tag, g)
		}
		hasDefault := false
		var exits []map[string]numState
		for _, c := range v.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				continue
			}
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				w.scanExpr(e, g)
			}
			gc := copyNum(g)
			if v.Tag == nil && len(cc.List) == 1 {
				tf, _ := w.condFacts(cc.List[0])
				applyFacts(gc, tf)
			}
			term := false
			for _, st := range cc.Body {
				if w.walkStmt(st, gc) {
					term = true
					break
				}
			}
			if !term {
				exits = append(exits, gc)
			}
		}
		if !hasDefault {
			exits = append(exits, copyNum(g))
		}
		if len(exits) == 0 {
			return true
		}
		meetNum(g, exits...)
		return false
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			w.walkStmt(v.Init, g)
		}
		w.walkStmt(v.Assign, g)
		var exits []map[string]numState
		for _, c := range v.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				continue
			}
			gc := copyNum(g)
			term := false
			for _, st := range cc.Body {
				if w.walkStmt(st, gc) {
					term = true
					break
				}
			}
			if !term {
				exits = append(exits, gc)
			}
		}
		exits = append(exits, copyNum(g))
		meetNum(g, exits...)
		return false
	case *ast.SelectStmt:
		var exits []map[string]numState
		for _, c := range v.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			gc := copyNum(g)
			if cc.Comm != nil {
				w.walkStmt(cc.Comm, gc)
			}
			term := false
			for _, st := range cc.Body {
				if w.walkStmt(st, gc) {
					term = true
					break
				}
			}
			if !term {
				exits = append(exits, gc)
			}
		}
		if len(exits) == 0 {
			return len(v.Body.List) > 0
		}
		meetNum(g, exits...)
		return false
	case *ast.AssignStmt:
		for _, r := range v.Rhs {
			w.scanExpr(r, g)
		}
		if v.Tok == token.QUO_ASSIGN && len(v.Lhs) == 1 && len(v.Rhs) == 1 && isFloat(p, v.Lhs[0]) {
			w.checkSink("division", v.Rhs[0], g)
		}
		switch v.Tok {
		case token.ASSIGN, token.DEFINE:
			if len(v.Lhs) == len(v.Rhs) {
				sts := make([]numState, len(v.Rhs))
				for i := range v.Rhs {
					sts[i] = w.stateOf(v.Rhs[i], g)
				}
				for _, l := range v.Lhs {
					w.killLHS(g, l)
				}
				for i, l := range v.Lhs {
					w.setVar(g, l, sts[i])
				}
			} else {
				for _, l := range v.Lhs {
					w.killLHS(g, l)
				}
			}
		default:
			for _, l := range v.Lhs {
				w.killLHS(g, l)
			}
		}
		return false
	case *ast.IncDecStmt:
		w.killLHS(g, v.X)
		return false
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, val := range vs.Values {
					w.scanExpr(val, g)
				}
				if len(vs.Values) == len(vs.Names) {
					for i, name := range vs.Names {
						if name.Name == "_" {
							continue
						}
						st := w.stateOf(vs.Values[i], g)
						if st.bits != 0 || st.origin != "" {
							g[name.Name] = st
						}
					}
				}
			}
		}
		return false
	case *ast.ExprStmt:
		w.scanExpr(v.X, g)
		if call, ok := ast.Unparen(v.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, isB := p.Info.Uses[id].(*types.Builtin); isB && b.Name() == "panic" {
					return true
				}
			}
		}
		return false
	case *ast.SendStmt:
		w.scanExpr(v.Chan, g)
		w.scanExpr(v.Value, g)
		return false
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			w.scanExpr(r, g)
		}
		if w.floatResult {
			w.sawRet = true
			if len(v.Results) == 1 {
				st := w.stateOf(v.Results[0], g)
				if st.bits&gPositive == 0 {
					w.retAll = false
				}
			} else {
				w.retAll = false // naked return: result state unknown
			}
		}
		return true
	case *ast.BranchStmt:
		return v.Tok != token.FALLTHROUGH
	case *ast.DeferStmt:
		w.scanExpr(v.Call.Fun, g)
		for _, a := range v.Call.Args {
			w.scanExpr(a, g)
		}
		return false
	case *ast.GoStmt:
		w.scanExpr(v.Call.Fun, g)
		for _, a := range v.Call.Args {
			w.scanExpr(a, g)
		}
		return false
	}
	return false
}

// scanExpr descends an expression looking for numeric sinks, in evaluation
// order. Function literals are separate units and are skipped.
func (w *numWalker) scanExpr(e ast.Expr, g map[string]numState) {
	if e == nil {
		return
	}
	switch v := e.(type) {
	case *ast.FuncLit:
	case *ast.CallExpr:
		w.scanCall(v, g)
	case *ast.BinaryExpr:
		w.scanExpr(v.X, g)
		w.scanExpr(v.Y, g)
		if v.Op == token.QUO && isFloat(w.p, v) {
			w.checkSink("division", v.Y, g)
		}
	case *ast.ParenExpr:
		w.scanExpr(v.X, g)
	case *ast.UnaryExpr:
		w.scanExpr(v.X, g)
	case *ast.StarExpr:
		w.scanExpr(v.X, g)
	case *ast.SelectorExpr:
		w.scanExpr(v.X, g)
	case *ast.IndexExpr:
		w.scanExpr(v.X, g)
		w.scanExpr(v.Index, g)
	case *ast.SliceExpr:
		w.scanExpr(v.X, g)
		w.scanExpr(v.Low, g)
		w.scanExpr(v.High, g)
		w.scanExpr(v.Max, g)
	case *ast.TypeAssertExpr:
		w.scanExpr(v.X, g)
	case *ast.KeyValueExpr:
		w.scanExpr(v.Key, g)
		w.scanExpr(v.Value, g)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			w.scanExpr(el, g)
		}
	}
}

// scanCall checks math sinks and attaches argument guard states to
// module-internal call edges.
func (w *numWalker) scanCall(call *ast.CallExpr, g map[string]numState) {
	p := w.p
	w.scanExpr(call.Fun, g)
	for _, a := range call.Args {
		w.scanExpr(a, g)
	}
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	if op := mathSinkOp(p, call); op != "" && len(call.Args) == 1 {
		w.checkSink(op, call.Args[0], g)
		return
	}
	fn := staticCallee(p, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	cf := w.callIdx[posOf(p, call.Pos())]
	if cf == nil {
		return
	}
	np := sig.Params().Len()
	for i, a := range call.Args {
		if sig.Variadic() && i >= np-1 {
			break
		}
		if i >= np || !isFloat(p, a) {
			continue
		}
		st := w.stateOf(a, g)
		cf.Args = append(cf.Args, CallArg{
			Index: i,
			Param: w.paramIndexOf(a),
			State: st.bits,
			Expr:  types.ExprString(ast.Unparen(a)),
		})
	}
}

// mathSinkOp names the numeric-safety sink a call is, or "".
func mathSinkOp(p *Package, call *ast.CallExpr) string {
	fn := staticCallee(p, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math" {
		return ""
	}
	switch fn.Name() {
	case "Log", "Log2", "Log10", "Sqrt", "Exp", "Exp2":
		return "math." + fn.Name()
	}
	return ""
}

// checkSink records a sink whose operand the must-analysis cannot prove
// guarded at this point.
func (w *numWalker) checkSink(op string, operand ast.Expr, g map[string]numState) {
	st := w.stateOf(operand, g)
	if sinkGuarded(op, st.bits) {
		return
	}
	w.ff.NumSinks = append(w.ff.NumSinks, NumSink{
		Op:      op,
		Operand: types.ExprString(ast.Unparen(operand)),
		Param:   w.paramIndexOf(operand),
		Callee:  st.origin,
		Pos:     posOf(w.p, operand.Pos()),
	})
}

// stateOf combines structural knowledge about an expression with the guard
// map.
func (w *numWalker) stateOf(e ast.Expr, g map[string]numState) numState {
	e = ast.Unparen(e)
	st := w.structural(e, g)
	if gs, ok := g[types.ExprString(e)]; ok {
		st.bits = normBits(st.bits | gs.bits)
		if st.origin == "" {
			st.origin = gs.origin
		}
	}
	return st
}

// structural derives guard bits from the expression's shape alone.
func (w *numWalker) structural(e ast.Expr, g map[string]numState) numState {
	p := w.p
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil {
		cv := constant.ToFloat(tv.Value)
		if cv.Kind() != constant.Float {
			return numState{}
		}
		f, _ := constant.Float64Val(cv)
		switch {
		case f > 0:
			return numState{bits: gPositive | gNonNeg | gNonZero | gBounded}
		case f == 0:
			return numState{bits: gNonNeg | gBounded}
		default:
			return numState{bits: gNonZero | gBounded}
		}
	}
	switch v := e.(type) {
	case *ast.CallExpr:
		if tv, ok := p.Info.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			return w.stateOf(v.Args[0], g) // conversion preserves sign facts
		}
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
			if b, isB := p.Info.Uses[id].(*types.Builtin); isB {
				if b.Name() == "len" || b.Name() == "cap" {
					return numState{bits: gNonNeg | gBounded}
				}
				return numState{}
			}
		}
		fn := staticCallee(p, v)
		if fn == nil {
			return numState{}
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "math" {
			switch fn.Name() {
			case "Exp", "Exp2":
				return numState{bits: normBits(gPositive)}
			case "Abs":
				if len(v.Args) == 1 {
					st := w.stateOf(v.Args[0], g)
					return numState{bits: gNonNeg | st.bits&(gNonZero|gBounded)}
				}
			case "Sqrt":
				if len(v.Args) == 1 {
					st := w.stateOf(v.Args[0], g)
					return numState{bits: normBits(gNonNeg | st.bits&gPositive)}
				}
			case "Max":
				if len(v.Args) == 2 {
					a := w.stateOf(v.Args[0], g)
					b := w.stateOf(v.Args[1], g)
					bits := (a.bits | b.bits) & (gPositive | gNonNeg)
					bits |= a.bits & b.bits & (gNonZero | gBounded)
					return numState{bits: normBits(bits)}
				}
			case "Min":
				if len(v.Args) == 2 {
					a := w.stateOf(v.Args[0], g)
					b := w.stateOf(v.Args[1], g)
					return numState{bits: a.bits & b.bits}
				}
			case "Inf":
				return numState{bits: gNonZero}
			}
			return numState{}
		}
		// Static call: record provenance so numflow can discharge the sink if
		// the callee's summary says ReturnsValidated.
		return numState{origin: funcID(fn)}
	case *ast.BinaryExpr:
		a := w.stateOf(v.X, g)
		b := w.stateOf(v.Y, g)
		switch v.Op {
		case token.ADD:
			bits := 0
			if a.bits&gNonNeg != 0 && b.bits&gNonNeg != 0 {
				bits |= gNonNeg
				if (a.bits|b.bits)&gPositive != 0 {
					bits |= gPositive
				}
			}
			return numState{bits: normBits(bits)}
		case token.MUL:
			bits := 0
			if a.bits&gPositive != 0 && b.bits&gPositive != 0 {
				bits |= gPositive
			}
			if a.bits&gNonNeg != 0 && b.bits&gNonNeg != 0 {
				bits |= gNonNeg
			}
			return numState{bits: normBits(bits)}
		case token.QUO:
			bits := 0
			if a.bits&gPositive != 0 && b.bits&gPositive != 0 {
				bits |= gPositive
			}
			if a.bits&gNonNeg != 0 && b.bits&gPositive != 0 {
				bits |= gNonNeg
			}
			return numState{bits: normBits(bits)}
		}
		return numState{}
	case *ast.UnaryExpr:
		if v.Op == token.SUB {
			st := w.stateOf(v.X, g)
			return numState{bits: st.bits & (gNonZero | gBounded)}
		}
		return numState{}
	}
	return numState{}
}

// condFacts computes the guard facts a condition establishes on its true and
// false edges.
func (w *numWalker) condFacts(cond ast.Expr) (t, f map[string]int) {
	t, f = map[string]int{}, map[string]int{}
	w.addCondFacts(cond, t, f)
	return t, f
}

func (w *numWalker) addCondFacts(cond ast.Expr, t, f map[string]int) {
	cond = ast.Unparen(cond)
	switch v := cond.(type) {
	case *ast.UnaryExpr:
		if v.Op == token.NOT {
			w.addCondFacts(v.X, f, t)
		}
	case *ast.BinaryExpr:
		switch v.Op {
		case token.LAND:
			// true => both true; the false edge proves nothing per-operand
			w.addCondFacts(v.X, t, map[string]int{})
			w.addCondFacts(v.Y, t, map[string]int{})
		case token.LOR:
			// false => both false
			w.addCondFacts(v.X, map[string]int{}, f)
			w.addCondFacts(v.Y, map[string]int{}, f)
		default:
			w.compFacts(v, t, f)
		}
	case *ast.CallExpr:
		p := w.p
		fn := staticCallee(p, v)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math" && len(v.Args) >= 1 {
			if fn.Name() == "IsNaN" || fn.Name() == "IsInf" {
				addFact(f, types.ExprString(ast.Unparen(v.Args[0])), gBounded)
			}
		}
	}
}

// compFacts extracts guard bits from a comparison against a constant.
func (w *numWalker) compFacts(v *ast.BinaryExpr, t, f map[string]int) {
	p := w.p
	op := v.Op
	var e ast.Expr
	var c float64
	if cv, ok := constVal(p, v.Y); ok {
		e, c = v.X, cv
	} else if cv, ok := constVal(p, v.X); ok {
		e, c = v.Y, cv
		op = flipCmp(op)
	} else {
		return
	}
	key := types.ExprString(ast.Unparen(e))
	addFact(t, key, opFacts(op, c))
	addFact(f, key, opFacts(negateCmp(op), c))
}

func constVal(p *Package, e ast.Expr) (float64, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	cv := constant.ToFloat(tv.Value)
	if cv.Kind() != constant.Float {
		return 0, false
	}
	f, _ := constant.Float64Val(cv)
	return f, true
}

// flipCmp mirrors a comparison when operands swap sides (c OP e -> e OP' c).
func flipCmp(op token.Token) token.Token {
	switch op {
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	}
	return op
}

func negateCmp(op token.Token) token.Token {
	switch op {
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	}
	return op
}

// opFacts: what `x OP c` being true proves about x.
func opFacts(op token.Token, c float64) int {
	switch op {
	case token.GTR:
		if c >= 0 {
			return gPositive
		}
	case token.GEQ:
		if c > 0 {
			return gPositive
		}
		if c == 0 {
			return gNonNeg
		}
	case token.NEQ:
		if c == 0 {
			return gNonZero
		}
	case token.EQL:
		switch {
		case c > 0:
			return gPositive | gBounded
		case c == 0:
			return gNonNeg | gBounded
		default:
			return gNonZero | gBounded
		}
	case token.LSS, token.LEQ:
		return gBounded // excludes NaN and +Inf
	}
	return 0
}

// paramIndexOf resolves an operand (through parens and conversions) to the
// unit's value-parameter index, or -1.
func (w *numWalker) paramIndexOf(e ast.Expr) int {
	p := w.p
	for {
		e = ast.Unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			break
		}
		tv, isT := p.Info.Types[call.Fun]
		if !isT || !tv.IsType() {
			break
		}
		e = call.Args[0]
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return -1
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	if obj == nil {
		return -1
	}
	if idx, ok := w.params[obj]; ok {
		return idx
	}
	return -1
}

// valueParamIndex maps the value parameters of a function type to their
// indices (receiver excluded; matches NumSink.Param and CallArg.Index).
func valueParamIndex(p *Package, ft *ast.FuncType) map[types.Object]int {
	out := map[types.Object]int{}
	if ft == nil || ft.Params == nil {
		return out
	}
	i := 0
	for _, f := range ft.Params.List {
		if len(f.Names) == 0 {
			i++
			continue
		}
		for _, name := range f.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				out[obj] = i
			}
			i++
		}
	}
	return out
}

// singleFloatResult reports whether the function has exactly one result of
// float type — the shape ReturnsValidated can speak about.
func singleFloatResult(p *Package, ft *ast.FuncType) bool {
	if ft == nil || ft.Results == nil || len(ft.Results.List) != 1 {
		return false
	}
	fl := ft.Results.List[0]
	if len(fl.Names) > 1 {
		return false
	}
	tv, ok := p.Info.Types[fl.Type]
	if !ok || tv.Type == nil {
		return false
	}
	b, isB := tv.Type.Underlying().(*types.Basic)
	return isB && b.Info()&types.IsFloat != 0
}

// staticCallee resolves a call's static *types.Func, or nil.
func staticCallee(p *Package, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}
