package lint

import (
	"fmt"
	"sort"
)

// module.go indexes the per-package fact summaries (summary.go) into the
// module-wide view numflow walks: every unit by ID, so a call edge resolves
// to its callee's facts across package boundaries.

// ModuleFacts is the module-wide fact database the interprocedural
// analyzers run over.
type ModuleFacts struct {
	Pkgs  []*PkgFacts
	funcs map[string]*FuncFacts // unit ID -> facts
}

// buildModuleFacts summarizes every package concurrently and indexes the
// result.
func buildModuleFacts(pkgs []*Package) *ModuleFacts {
	out := make([]*PkgFacts, len(pkgs))
	parallel(len(pkgs), func(i int) { out[i] = summarizePackage(pkgs[i]) })
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	m := &ModuleFacts{Pkgs: out, funcs: map[string]*FuncFacts{}}
	for _, pf := range out {
		for _, ff := range pf.Funcs {
			m.funcs[ff.ID] = ff
		}
	}
	return m
}

// Func resolves a unit ID; nil when the unit is not in the module (stdlib,
// interface method, dynamic call).
func (m *ModuleFacts) Func(id string) *FuncFacts { return m.funcs[id] }

// mdiag builds a module-analyzer diagnostic at a fact position.
func mdiag(check string, pos Pos, format string, args ...any) Diagnostic {
	return Diagnostic{
		Check:   check,
		File:    pos.File,
		Line:    pos.Line,
		Column:  pos.Col,
		Message: fmt.Sprintf(format, args...),
	}
}
