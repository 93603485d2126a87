package lint

import (
	"fmt"
	"strings"
)

// numflow.go: interprocedural numeric-safety analyzer. In a function
// annotated `// iam:numsafe`, every math.Log/Exp/Sqrt operand and float
// divisor must be provably guarded on every path — a dominating zero/negative
// check, a clamp (math.Max against a positive floor, like the GMM variance
// floor), or flow through a validator the summaries recognize. The
// intraprocedural must-analysis (taint.go) already discharged everything it
// could prove; what reaches this pass is resolved interprocedurally:
//
//   - A sink whose operand is the unit's own parameter (NumSink.Param >= 0)
//     becomes a must-positive obligation checked at every call site against
//     the caller's proved argument state (CallFact.Args), transitively
//     through forwarding calls.
//   - A sink fed by a static call's return value (NumSink.Callee) is
//     discharged when that unit's summary says ReturnsValidated (every
//     return path provably positive — e.g. a floor/clamp helper).
//   - A numsafe function's own parameters are its contract boundary: callers
//     inside other numsafe functions are checked against its obligations;
//     the root itself assumes them satisfied.
//
// Diagnostics carry witness call paths like
// `A → B → C: math.Log operand "w" at c.go:12`.
var AnalyzerNumFlow = &Analyzer{
	Name:      "numflow",
	Doc:       "iam:numsafe functions must guard math.Log/Exp/Sqrt/division operands on every path (interprocedural must-positive propagation)",
	RunModule: runNumFlow,
}

// numChain is one unguarded sink with the call chain that reaches it.
type numChain struct {
	chain   []string
	op      string
	operand string
	pos     Pos
}

type numModWalker struct {
	m        *ModuleFacts
	witMemo  map[string]*numChain
	mustMemo map[string]map[int]*numChain
}

// discharged reports whether a return-value-fed sink is covered by its
// callee's ReturnsValidated summary.
func (w *numModWalker) discharged(s *NumSink) bool {
	if s.Callee == "" {
		return false
	}
	callee := w.m.Func(s.Callee)
	return callee != nil && callee.ReturnsValidated
}

// mustPos computes a unit's per-parameter must-positive obligations: the
// first sink (direct, or reached by forwarding the parameter into a callee
// obligation unguarded) each value parameter flows into.
func (w *numModWalker) mustPos(id string) map[int]*numChain {
	return w.mustPosWalk(id, map[string]bool{})
}

func (w *numModWalker) mustPosWalk(id string, seen map[string]bool) map[int]*numChain {
	if ob, ok := w.mustMemo[id]; ok {
		return ob
	}
	if seen[id] {
		return nil
	}
	seen[id] = true
	ff := w.m.Func(id)
	if ff == nil {
		return nil
	}
	ob := map[int]*numChain{}
	for i := range ff.NumSinks {
		s := &ff.NumSinks[i]
		if s.Param < 0 || w.discharged(s) {
			continue
		}
		if _, dup := ob[s.Param]; !dup {
			ob[s.Param] = &numChain{chain: []string{id}, op: s.Op, operand: s.Operand, pos: s.Pos}
		}
	}
	for _, c := range ff.Calls {
		if len(c.Args) == 0 || w.m.Func(c.Callee) == nil {
			continue
		}
		sub := w.mustPosWalk(c.Callee, seen)
		for _, a := range c.Args {
			if a.Param < 0 {
				continue // not a forwarded parameter of this unit
			}
			calleeOb := sub[a.Index]
			if calleeOb == nil || sinkGuarded(calleeOb.op, a.State) {
				continue
			}
			if _, dup := ob[a.Param]; !dup {
				ob[a.Param] = &numChain{
					chain:   append([]string{id}, calleeOb.chain...),
					op:      calleeOb.op,
					operand: calleeOb.operand,
					pos:     calleeOb.pos,
				}
			}
		}
	}
	w.mustMemo[id] = ob
	return ob
}

// witness returns the first unguarded non-parameter sink reachable from a
// (non-numsafe) unit: its own local sinks, unguarded non-parameter arguments
// flowing into callee obligations, or transitively through callees. numsafe
// callees are roots of their own and are not entered.
func (w *numModWalker) witness(id string) *numChain {
	return w.witnessWalk(id, map[string]bool{})
}

func (w *numModWalker) witnessWalk(id string, seen map[string]bool) *numChain {
	if wit, ok := w.witMemo[id]; ok {
		return wit
	}
	if seen[id] {
		return nil
	}
	seen[id] = true
	ff := w.m.Func(id)
	if ff == nil {
		return nil
	}
	for i := range ff.NumSinks {
		s := &ff.NumSinks[i]
		if s.Param >= 0 || w.discharged(s) {
			continue
		}
		wit := &numChain{chain: []string{id}, op: s.Op, operand: s.Operand, pos: s.Pos}
		w.witMemo[id] = wit
		return wit
	}
	for _, c := range ff.Calls {
		callee := w.m.Func(c.Callee)
		if callee == nil {
			continue
		}
		// Unguarded non-parameter arguments against the callee's obligations.
		if len(c.Args) > 0 {
			sub := w.mustPosWalk(c.Callee, map[string]bool{})
			for _, a := range c.Args {
				if a.Param >= 0 {
					continue // becomes this unit's own obligation
				}
				calleeOb := sub[a.Index]
				if calleeOb == nil || sinkGuarded(calleeOb.op, a.State) {
					continue
				}
				wit := &numChain{
					chain:   append([]string{id}, calleeOb.chain...),
					op:      calleeOb.op,
					operand: calleeOb.operand,
					pos:     calleeOb.pos,
				}
				w.witMemo[id] = wit
				return wit
			}
		}
		if callee.NumSafe {
			continue // enforced as its own root
		}
		if sub := w.witnessWalk(c.Callee, seen); sub != nil {
			wit := &numChain{chain: append([]string{id}, sub.chain...), op: sub.op, operand: sub.operand, pos: sub.pos}
			w.witMemo[id] = wit
			return wit
		}
	}
	w.witMemo[id] = nil
	return nil
}

func runNumFlow(m *ModuleFacts) []Diagnostic {
	var out []Diagnostic
	w := &numModWalker{m: m, witMemo: map[string]*numChain{}, mustMemo: map[string]map[int]*numChain{}}
	for _, pf := range m.Pkgs {
		for _, ff := range pf.Funcs {
			if !ff.NumSafe {
				continue
			}
			// Local sinks the must-analysis could not discharge.
			for i := range ff.NumSinks {
				s := &ff.NumSinks[i]
				if s.Param >= 0 || w.discharged(s) {
					continue
				}
				out = append(out, mdiag("numflow", s.Pos,
					"unguarded %s operand %q in iam:numsafe function %s%s", s.Op, s.Operand, ff.ID, calleeNote(m, s)))
			}
			// Call sites: obligations of callees, and sinks reached through
			// non-numsafe callees.
			for _, c := range ff.Calls {
				callee := m.Func(c.Callee)
				if callee == nil {
					continue
				}
				if len(c.Args) > 0 {
					ob := w.mustPos(c.Callee)
					for _, a := range c.Args {
						calleeOb := ob[a.Index]
						if calleeOb == nil || sinkGuarded(calleeOb.op, a.State) {
							continue
						}
						if a.Param >= 0 {
							continue // the root's own parameter: contract boundary
						}
						out = append(out, mdiag("numflow", c.Pos,
							"iam:numsafe function %s passes unguarded argument %q to %s: %s",
							ff.ID, a.Expr, c.Callee, chainString(ff.ID, calleeOb)))
					}
				}
				if callee.NumSafe {
					continue
				}
				if wit := w.witness(c.Callee); wit != nil {
					out = append(out, mdiag("numflow", c.Pos,
						"iam:numsafe function %s reaches unguarded %s: %s",
						ff.ID, wit.op, chainString(ff.ID, wit)))
				}
			}
		}
	}
	return out
}

// chainString renders "root → A → B: math.Log operand "w" at b.go:12".
func chainString(root string, ch *numChain) string {
	return fmt.Sprintf("%s: %s operand %q at %s:%d",
		root+" → "+strings.Join(ch.chain, " → "), ch.op, ch.operand, witnessFile(ch.pos), ch.pos.Line)
}

// calleeNote explains why a return-value-fed sink was not discharged.
func calleeNote(m *ModuleFacts, s *NumSink) string {
	if s.Callee == "" {
		return ""
	}
	if m.Func(s.Callee) == nil {
		return fmt.Sprintf(" (fed by %s, not summarized in this module)", s.Callee)
	}
	return fmt.Sprintf(" (fed by %s, whose returns are not provably positive)", s.Callee)
}

// witnessFile shortens a witness position's file to its base name.
func witnessFile(p Pos) string {
	if i := strings.LastIndexByte(p.File, '/'); i >= 0 {
		return p.File[i+1:]
	}
	return p.File
}
