package lint

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// module.go assembles per-package fact summaries (summary.go) into a
// module-wide view: a function index, a static call graph, transitive
// closures over it, and DOT dumps for debugging analyzer findings
// (`iamlint -graph`, `make lint-graph`).

// ModuleFacts is the module-wide fact database the interprocedural
// analyzers run over.
type ModuleFacts struct {
	Pkgs []*PkgFacts

	funcs map[string]*FuncFacts // unit ID -> facts
	// memoized transitive results
	mu        sync.Mutex
	acqMemo   map[string][]string
	allocMemo map[string]*AllocFact
	sigMemo   map[string][]string
}

// BuildModuleFacts summarizes every package concurrently and indexes the
// result.
func BuildModuleFacts(pkgs []*Package) *ModuleFacts {
	out := make([]*PkgFacts, len(pkgs))
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
				out[i] = SummarizePackage(pkgs[i])
			}
		}()
	}
	for i := range pkgs {
		next <- i
	}
	close(next)
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	m := &ModuleFacts{
		Pkgs:      out,
		funcs:     map[string]*FuncFacts{},
		acqMemo:   map[string][]string{},
		allocMemo: map[string]*AllocFact{},
		sigMemo:   map[string][]string{},
	}
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

// stableClass reports whether a lock class identifies state shared across
// functions (a struct field or package-level variable): classes the
// lock-order graph can reason about. Locals, parameters and unresolved
// expressions are instance-ambiguous and excluded.
func stableClass(c string) bool {
	return c != "param" && !strings.HasPrefix(c, "local ") && !strings.HasPrefix(c, "expr:")
}

// TransitiveAcquires returns the sorted set of stable lock classes a unit
// may acquire, directly or through module-internal static calls. Cycles in
// the call graph are handled by memoizing an in-progress marker.
func (m *ModuleFacts) TransitiveAcquires(id string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[string]bool{}
	set := map[string]bool{}
	m.acquiresInto(id, seen, set)
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func (m *ModuleFacts) acquiresInto(id string, seen, set map[string]bool) {
	if memo, ok := m.acqMemo[id]; ok {
		for _, c := range memo {
			set[c] = true
		}
		return
	}
	if seen[id] {
		return
	}
	seen[id] = true
	ff := m.funcs[id]
	if ff == nil {
		return
	}
	local := map[string]bool{}
	for _, a := range ff.Acquires {
		if stableClass(a.Class) {
			local[a.Class] = true
		}
	}
	for _, c := range ff.Calls {
		m.acquiresInto(c.Callee, seen, local)
	}
	memo := make([]string, 0, len(local))
	for c := range local {
		memo = append(memo, c)
		set[c] = true
	}
	sort.Strings(memo)
	m.acqMemo[id] = memo
}

// AllocWitness returns the first allocation reachable from a unit through
// module-internal static calls (skipping callees annotated iam:noalloc,
// which are checked on their own), or nil when none is reachable. The
// witness message names the full call-site path context via What.
func (m *ModuleFacts) AllocWitness(id string) *AllocFact {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allocWitness(id, map[string]bool{})
}

func (m *ModuleFacts) allocWitness(id string, seen map[string]bool) *AllocFact {
	if w, ok := m.allocMemo[id]; ok {
		return w
	}
	if seen[id] {
		return nil
	}
	seen[id] = true
	ff := m.funcs[id]
	if ff == nil {
		return nil
	}
	if len(ff.Allocs) > 0 {
		w := &ff.Allocs[0]
		m.allocMemo[id] = w
		return w
	}
	for _, c := range ff.Calls {
		callee := m.funcs[c.Callee]
		if callee == nil || callee.NoAlloc {
			continue
		}
		if w := m.allocWitness(c.Callee, seen); w != nil {
			m.allocMemo[id] = w
			return w
		}
	}
	m.allocMemo[id] = nil
	return nil
}

// TransitiveSignals returns the sorted join signals a unit emits directly or
// through module-internal static calls — what a goroutine running this unit
// can be waited on by.
func (m *ModuleFacts) TransitiveSignals(id string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	set := map[string]bool{}
	m.signalsInto(id, map[string]bool{}, set)
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func (m *ModuleFacts) signalsInto(id string, seen, set map[string]bool) {
	if memo, ok := m.sigMemo[id]; ok {
		for _, s := range memo {
			set[s] = true
		}
		return
	}
	if seen[id] {
		return
	}
	seen[id] = true
	ff := m.funcs[id]
	if ff == nil {
		return
	}
	local := map[string]bool{}
	for _, s := range ff.Signals {
		local[s] = true
	}
	for _, c := range ff.Calls {
		m.signalsInto(c.Callee, seen, local)
	}
	memo := make([]string, 0, len(local))
	for s := range local {
		memo = append(memo, s)
		set[s] = true
	}
	sort.Strings(memo)
	m.sigMemo[id] = memo
}

// ModuleJoins aggregates the module-wide join points goleak matches spawn
// signals against: WaitGroup classes Wait()ed on, channel classes received
// from, channel classes closed.
type ModuleJoins struct {
	Waits  map[string]bool
	Recvs  map[string]bool
	Closes map[string]bool
}

// Joins computes the module-wide join sets.
func (m *ModuleFacts) Joins() ModuleJoins {
	j := ModuleJoins{Waits: map[string]bool{}, Recvs: map[string]bool{}, Closes: map[string]bool{}}
	for _, pf := range m.Pkgs {
		for _, ff := range pf.Funcs {
			for _, c := range ff.Waits {
				j.Waits[c] = true
			}
			for _, c := range ff.Recvs {
				j.Recvs[c] = true
			}
			for _, c := range ff.Closes {
				j.Closes[c] = true
			}
		}
	}
	return j
}

// lockEdge is one observed "acquired B while holding A" edge.
type lockEdge struct {
	from, to string
	pos      Pos
	via      string // unit the edge was observed in (or whose call implies it)
}

// LockEdges computes the module's lock-order edges: direct (an acquire with
// locks held) and interprocedural (a call made with locks held, to a callee
// that transitively acquires more). Edges are deduplicated by (from, to)
// keeping the first position in sorted-unit order.
func (m *ModuleFacts) LockEdges() []lockEdge {
	type key struct{ from, to string }
	seen := map[key]lockEdge{}
	add := func(from, to string, pos Pos, via string) {
		if from == to || !stableClass(from) || !stableClass(to) {
			return
		}
		k := key{from, to}
		if _, ok := seen[k]; !ok {
			seen[k] = lockEdge{from: from, to: to, pos: pos, via: via}
		}
	}
	ids := make([]string, 0, len(m.funcs))
	for id := range m.funcs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ff := m.funcs[id]
		for _, a := range ff.Acquires {
			for _, h := range a.Held {
				add(h, a.Class, a.Pos, id)
			}
		}
		for _, c := range ff.Calls {
			if len(c.Held) == 0 {
				continue
			}
			for _, acq := range m.TransitiveAcquires(c.Callee) {
				for _, h := range c.Held {
					add(h, acq, c.Pos, id)
				}
			}
		}
	}
	out := make([]lockEdge, 0, len(seen))
	for _, e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].from != out[j].from {
			return out[i].from < out[j].from
		}
		return out[i].to < out[j].to
	})
	return out
}

// lockSCCs runs Tarjan's algorithm over the lock-order edge graph and
// returns the set of classes in non-trivial strongly connected components —
// the participants in potential deadlock cycles.
func lockSCCs(edges []lockEdge) map[string]int {
	adj := map[string][]string{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	comp := map[string]int{}
	next, ncomp := 0, 0

	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := index[w]; !ok {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			size := 0
			members := []string{}
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, w)
				size++
				if w == v {
					break
				}
			}
			if size > 1 {
				for _, w := range members {
					comp[w] = ncomp
				}
				ncomp++
			}
		}
	}
	nodes := make([]string, 0, len(adj))
	for v := range adj {
		nodes = append(nodes, v)
	}
	sort.Strings(nodes)
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strong(v)
		}
	}
	// Trivial components are absent from comp; self-loops were filtered at
	// edge construction.
	return comp
}

// Orders returns every declared iam:lockorder fact in the module.
func (m *ModuleFacts) Orders() []OrderFact {
	var out []OrderFact
	for _, pf := range m.Pkgs {
		out = append(out, pf.Orders...)
	}
	return out
}

// CallGraphDOT renders the module-internal static call graph. Spawn edges
// (go statements) are dashed. Only module-resolvable endpoints appear.
func (m *ModuleFacts) CallGraphDOT() string {
	var b strings.Builder
	b.WriteString("digraph callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n")
	ids := make([]string, 0, len(m.funcs))
	for id := range m.funcs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	type edge struct {
		from, to string
		spawn    bool
	}
	seen := map[edge]bool{}
	var edges []edge
	for _, id := range ids {
		ff := m.funcs[id]
		for _, c := range ff.Calls {
			if m.funcs[c.Callee] == nil {
				continue
			}
			e := edge{from: id, to: c.Callee}
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
		for _, s := range ff.Spawns {
			for _, callee := range s.Callees {
				if m.funcs[callee] == nil {
					continue
				}
				e := edge{from: id, to: callee, spawn: true}
				if !seen[e] {
					seen[e] = true
					edges = append(edges, e)
				}
			}
		}
	}
	for _, e := range edges {
		if e.spawn {
			fmt.Fprintf(&b, "  %q -> %q [style=dashed, label=\"go\"];\n", e.from, e.to)
		} else {
			fmt.Fprintf(&b, "  %q -> %q;\n", e.from, e.to)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// LockGraphDOT renders the inferred lock-order graph: nodes are lock
// classes, an edge A -> B means B was acquired (possibly through calls)
// while A was held. Declared iam:lockorder edges are drawn dotted when not
// also observed.
func (m *ModuleFacts) LockGraphDOT() string {
	edges := m.LockEdges()
	var b strings.Builder
	b.WriteString("digraph lockorder {\n  rankdir=LR;\n  node [shape=ellipse, fontsize=10];\n")
	observed := map[[2]string]bool{}
	for _, e := range edges {
		observed[[2]string{e.from, e.to}] = true
		fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", e.from, e.to, e.via)
	}
	var decl []OrderFact
	decl = append(decl, m.Orders()...)
	sort.Slice(decl, func(i, j int) bool {
		if decl[i].Before != decl[j].Before {
			return decl[i].Before < decl[j].Before
		}
		return decl[i].After < decl[j].After
	})
	for _, o := range decl {
		if !observed[[2]string{o.Before, o.After}] {
			fmt.Fprintf(&b, "  %q -> %q [style=dotted, label=\"declared\"];\n", o.Before, o.After)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
