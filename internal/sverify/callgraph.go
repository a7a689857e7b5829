package sverify

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/isa"
)

// This file lifts the per-image CFG into a whole-image interprocedural
// call graph: functions are the code regions reachable from the task
// entry point and from every (direct or lattice-resolved indirect) call
// target, edges are the call sites between them, and recursion is
// detected as strongly connected components of the function graph. The
// resource-bound engine (resbound.go) consumes the graph bottom-up:
// callees are bounded before their callers.

// cgCall is one resolved call edge.
type cgCall struct {
	site     uint32 // offset of the CALL/CALLR instruction
	callee   uint32 // entry offset of the called function
	indirect bool   // resolved through the value lattice (CALLR)
}

// cgFunc is one discovered function: the code reachable from an entry
// offset through intra-procedural edges (fallthrough, branches, resolved
// indirect jumps, and the return points of calls).
type cgFunc struct {
	entry uint32
	insns map[uint32]decoded  // instruction offsets in the function body
	succs map[uint32][]uint32 // intra-procedural successor edges
	preds map[uint32][]uint32 // reverse edges (loop-bound inference)
	calls []cgCall            // resolved call sites, in site order

	// unresolvedCalls are CALLR sites whose callee the lattice cannot
	// name (in site order); unresolvedJumps are JR sites with an
	// unknown target. Either makes every resource bound of the function
	// Unbounded. resolvedJumps are the JR sites the lattice did name
	// (their CFG warnings are downgraded once the target is known).
	unresolvedCalls []uint32
	unresolvedJumps []uint32
	resolvedJumps   []uint32

	svcs []uint32 // SVC sites (burst boundaries for the WCET engine)
}

// callGraph is the whole-image function graph.
type callGraph struct {
	funcs map[uint32]*cgFunc
	order []uint32 // function entries, ascending (deterministic walks)

	// recursive marks functions on a call cycle (self or mutual): the
	// stack and cycle bounds of such a function are Unbounded unless the
	// bounded-recursion prover (resbound.go) certifies a decrement.
	recursive map[uint32]bool
	// sccSize is the size of each recursive function's component —
	// mutual recursion (size > 1) is never bounded by the prover.
	sccSize map[uint32]int
	// sccID names each multi-function component by its smallest member
	// entry, so the finding emitter can locate the call edges that close
	// a mutual-recursion cycle.
	sccID map[uint32]uint32
}

// indirectTarget resolves the register-indirect control transfer at off
// using the converged abstract state: a relocated constant that lands on
// a canonical instruction boundary inside the code section names the
// target; anything else — absolute constants, stack values, Top — is
// opaque. One-sided by construction: a resolved target is the only
// address the register can hold at that point.
func (v *verifier) indirectTarget(off uint32, in isa.Instruction) (uint32, bool) {
	st, ok := v.states[off]
	if !ok {
		return 0, false
	}
	val := st.regs[in.Rs]
	if val.K != kindConst || !val.Reloc {
		return 0, false
	}
	t := val.V
	if t >= v.textLen {
		return 0, false
	}
	if d, ok := v.canon[t]; !ok || !d.ok {
		return 0, false
	}
	return t, true
}

// buildCallGraph discovers every function from the entry point outward
// and computes the recursion components. It runs after interpret() so
// indirect calls resolve against converged states.
func (v *verifier) buildCallGraph() *callGraph {
	g := &callGraph{
		funcs:     make(map[uint32]*cgFunc),
		recursive: make(map[uint32]bool),
		sccSize:   make(map[uint32]int),
		sccID:     make(map[uint32]uint32),
	}
	if v.textLen == 0 {
		return g
	}
	pending := []uint32{v.im.Entry}
	for len(pending) > 0 {
		entry := pending[0]
		pending = pending[1:]
		if _, ok := g.funcs[entry]; ok {
			continue
		}
		f := v.walkFunc(entry)
		g.funcs[entry] = f
		for _, c := range f.calls {
			pending = append(pending, c.callee)
		}
	}
	for e := range g.funcs {
		g.order = append(g.order, e)
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i] < g.order[j] })
	g.markRecursion()
	return g
}

// walkFunc discovers the body of the function entered at entry. It
// decodes from the canonical stream directly (a function only reachable
// through a resolved CALLR may be absent from the global traversal) and
// never emits findings — the bound engine reports through Bounds
// reasons, the CFG traversal through its own diagnostics.
func (v *verifier) walkFunc(entry uint32) *cgFunc {
	f := &cgFunc{
		entry: entry,
		succs: make(map[uint32][]uint32),
		preds: make(map[uint32][]uint32),
	}
	f.insns = v.walk(entry, func(off uint32, d decoded) []uint32 {
		if !d.ok {
			return nil // undecodable: execution faults here, path ends
		}
		succs := v.funcSuccs(f, off, d)
		f.succs[off] = succs
		for _, s := range succs {
			f.preds[s] = append(f.preds[s], off)
		}
		return succs
	})
	// The walk discovers sites breadth-first; the passes look them up
	// by offset.
	slices.SortFunc(f.calls, func(a, b cgCall) int { return cmp.Compare(a.site, b.site) })
	slices.Sort(f.unresolvedCalls)
	return f
}

// funcSuccs computes the intra-procedural successors of the instruction
// at off and records the function's call/svc structure as a side
// effect. Branch targets outside the code section or on non-canonical
// boundaries contribute no edge (execution faults there).
func (v *verifier) funcSuccs(f *cgFunc, off uint32, d decoded) []uint32 {
	in := d.in
	e := v.edgesOf(off, d)
	var out []uint32
	if next := off + d.size; e.next && next < v.textLen {
		out = append(out, next)
	}
	switch {
	case e.inText && in.Op == isa.OpCALL:
		f.calls = append(f.calls, cgCall{site: off, callee: e.target})
	case e.inText:
		out = append(out, e.target)
	case in.Op == isa.OpCALLR:
		if t, ok := v.indirectTarget(off, in); ok {
			f.calls = append(f.calls, cgCall{site: off, callee: t, indirect: true})
		} else {
			f.unresolvedCalls = append(f.unresolvedCalls, off)
		}
	case in.Op == isa.OpJR:
		if t, ok := v.indirectTarget(off, in); ok {
			f.resolvedJumps = append(f.resolvedJumps, off)
			out = append(out, t)
		} else {
			f.unresolvedJumps = append(f.unresolvedJumps, off)
		}
	case in.Op == isa.OpSVC:
		f.svcs = append(f.svcs, off)
	}
	return out
}

// calleeAt returns the callee of the resolved call at site.
func (f *cgFunc) calleeAt(site uint32) (uint32, bool) {
	i, ok := slices.BinarySearchFunc(f.calls, site, func(c cgCall, s uint32) int { return cmp.Compare(c.site, s) })
	if !ok {
		return 0, false
	}
	return f.calls[i].callee, true
}

// unresolvedAt reports whether site is a CALLR the lattice cannot name.
func (f *cgFunc) unresolvedAt(site uint32) bool {
	_, ok := slices.BinarySearch(f.unresolvedCalls, site)
	return ok
}

// markRecursion marks every function on a call cycle: the members of
// each multi-function strongly connected component of the call graph,
// and every function that calls itself.
func (g *callGraph) markRecursion() {
	callees := func(fn uint32) []uint32 {
		var out []uint32
		for _, c := range g.funcs[fn].calls {
			out = append(out, c.callee)
		}
		return out
	}
	for _, comp := range tarjanSCC(g.order, callees) {
		if len(comp) < 2 {
			continue
		}
		id := minOf(comp)
		for _, m := range comp {
			g.recursive[m] = true
			g.sccSize[m] = len(comp)
			g.sccID[m] = id
		}
	}
	// Self-recursion is a cycle Tarjan's component size misses.
	for _, e := range g.order {
		for _, c := range g.funcs[e].calls {
			if c.callee == e {
				g.recursive[e] = true
				if g.sccSize[e] == 0 {
					g.sccSize[e] = 1
				}
			}
		}
	}
}
