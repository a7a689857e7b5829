package sverify

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/machine"
)

// The static resource-bound engine: worst-case stack depth and
// worst-case burst cycles for a task image, derived from the call graph
// (callgraph.go), the converged abstract states (absint.go) and the
// loop-bound prover (loopbound.go).
//
// # Semantics
//
// StackBytes bounds the stack-pointer excursion below the task's
// initial SP over any execution: no instruction ever runs with
// SP < stackTop − StackBytes. It does not include the interrupt context
// frame the kernel pushes below the live SP; the admission gate adds
// that slack (machine.ContextFrameBytes) before comparing against the
// stack reservation.
//
// Cycles bounds one *burst*: the machine cycles of any maximal run
// segment between scheduling points. The simulated core stops at every
// SVC and HLT, so statically a burst starts at the entry point or just
// after an SVC of the entry function and ends at the next SVC, HLT,
// RET or fault. Inside callees an SVC is a pass-through costed at its
// instruction price — a sound over-approximation, since a dynamic
// segment that resumes mid-callee is a sub-segment of a journey whose
// full callee cost the enclosing static burst already charges.
//
// # One-sidedness
//
// Every number reported is an upper bound the differential suite holds
// the engine to; anything unprovable — recursion without a certified
// decrement, an unresolved indirect call or jump, a loop with no
// counted exit, direct SP arithmetic — degrades the verdict to
// Unbounded with a reason, never to a wrong number.

// Bound ceilings: results beyond these are reported Unbounded rather
// than risking overflow arithmetic.
const (
	maxCycleBound = uint64(1) << 40
	maxStackBound = uint64(1) << 31
	// spJoinLimit caps how often one instruction's stack interval may be
	// re-joined before the frame dataflow declares unbounded growth
	// (balanced frames converge in a handful of passes).
	spJoinLimit = 64
)

// Bounds is the resource-bound section of a verification report.
type Bounds struct {
	// StackBounded reports whether StackBytes is a proven bound on the
	// SP excursion below the initial stack pointer.
	StackBounded bool `json:"stack_bounded"`
	// StackBytes is the worst-case excursion in bytes (0 if unbounded).
	StackBytes uint32 `json:"stack_bytes"`
	// CyclesBounded reports whether Cycles is a proven per-burst bound.
	CyclesBounded bool `json:"cycles_bounded"`
	// Cycles is the worst-case cycles of one scheduling burst (0 if
	// unbounded).
	Cycles uint64 `json:"cycles"`
	// Verdict is "bounded" when both resources are certified,
	// "unbounded" otherwise.
	Verdict string `json:"verdict"`
	// Reasons lists, sorted, why a resource is unbounded.
	Reasons []string `json:"reasons,omitempty"`
}

// Verdict strings.
const (
	VerdictBounded   = "bounded"
	VerdictUnbounded = "unbounded"
)

// resResult is one memoized per-function resource bound.
type resResult struct {
	val uint64
	ok  bool
}

// memo returns m[key], running compute on the first lookup only. The
// slot is filled before compute runs, so a call cycle back to key
// reads (0, false).
func memo(m map[uint32]*resResult, key uint32, compute func() (uint64, bool)) (uint64, bool) {
	if r := m[key]; r != nil {
		return r.val, r.ok
	}
	r := &resResult{}
	m[key] = r
	r.val, r.ok = compute()
	return r.val, r.ok
}

// resource names one per-function bound the engine resolves over the
// call graph.
type resource int

const (
	resStack  resource = iota // worst-case stack excursion in bytes
	resCycles                 // worst-case entry-to-RET cycles
)

var (
	resName    = [...]string{resStack: "stack", resCycles: "cycle"}
	resCeiling = [...]uint64{resStack: maxStackBound, resCycles: maxCycleBound}
)

// boundEngine resolves function bounds bottom-up over the call graph.
// Stack and cycle bounds are memoized separately so a resource is only
// analyzed in callee mode when some caller actually needs it (the task
// entry function's cycle bound, for instance, is a burst bound, not an
// entry-to-RET bound — unless the image also calls its own entry).
type boundEngine struct {
	v         *verifier
	g         *callGraph
	memos     [2]map[uint32]*resResult // per resource
	proveMemo map[uint32]*resResult    // bounded-recursion frame counts
	reasons   map[string]bool
}

func (e *boundEngine) reason(off uint32, why string) {
	e.reasons[fmt.Sprintf("%#06x: %s", off, why)] = true
}

func satAdd(a, b uint64) uint64 {
	if a > maxCycleBound || b > maxCycleBound || a+b > maxCycleBound {
		return maxCycleBound + 1
	}
	return a + b
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > maxCycleBound || b > maxCycleBound/a {
		return maxCycleBound + 1
	}
	return a * b
}

// computeBounds is the engine entry point, run by Verify after the
// abstract interpreter converges and before Definite promotion (so a
// recursion finding on the must-execute prefix is promoted like any
// other guaranteed fault).
func (v *verifier) computeBounds() *Bounds {
	b := &Bounds{Verdict: VerdictUnbounded}
	if v.textLen == 0 {
		b.Reasons = []string{"0x0000: image has no code"}
		return b
	}
	e := &boundEngine{
		v:         v,
		g:         v.buildCallGraph(),
		memos:     [2]map[uint32]*resResult{make(map[uint32]*resResult), make(map[uint32]*resResult)},
		proveMemo: make(map[uint32]*resResult),
		reasons:   make(map[string]bool),
	}
	e.downgradeResolvedIndirects()
	e.emitRecursionFindings()

	if st, ok := e.resolve(resStack, v.im.Entry); ok {
		b.StackBounded = true
		b.StackBytes = uint32(st)
	}
	if cycles, ok := e.burstWCET(v.im.Entry); ok {
		b.CyclesBounded = true
		b.Cycles = cycles
	}
	if b.StackBounded && b.CyclesBounded {
		b.Verdict = VerdictBounded
	}
	for r := range e.reasons {
		b.Reasons = append(b.Reasons, r)
	}
	sort.Strings(b.Reasons)

	// A certified stack bound that cannot fit the declared reservation
	// (plus the interrupt context frame the kernel pushes below the live
	// SP) is worth flagging even without the admission gate armed; a
	// bound that provably fits refutes the interpreter's heuristic
	// call-depth warning, so retract it.
	if b.StackBounded {
		if uint64(b.StackBytes)+machine.ContextFrameBytes > uint64(align4(v.im.StackSize)) {
			v.add(v.im.Entry, Warning, "stack-bound",
				fmt.Sprintf("static stack bound %d bytes (+%d context frame) exceeds the %d-byte stack reservation",
					b.StackBytes, machine.ContextFrameBytes, v.im.StackSize), "")
		} else {
			for k := range v.findings {
				if k.code == "call-depth" {
					delete(v.findings, k)
				}
			}
		}
	}
	return b
}

// downgradeResolvedIndirects replaces the CFG traversal's blanket
// "indirect-branch" warning with an informational note wherever the
// value lattice proved the one address the register can hold — those
// transfers are covered by the call graph and the bound engine.
func (e *boundEngine) downgradeResolvedIndirects() {
	note := func(site uint32, what string, target uint32) {
		k := findingKey{site, "indirect-branch"}
		if _, ok := e.v.findings[k]; !ok {
			return
		}
		delete(e.v.findings, k)
		e.v.add(site, Info, "indirect-resolved",
			fmt.Sprintf("indirect %s target resolved to %#x by the value lattice", what, target),
			e.v.reach[site].in.String())
	}
	for _, entry := range e.g.order {
		f := e.g.funcs[entry]
		for _, c := range f.calls {
			if c.indirect {
				note(c.site, "call", c.callee)
			}
		}
		for _, j := range f.resolvedJumps {
			if t, ok := e.v.indirectTarget(j, f.insns[j].in); ok {
				note(j, "jump", t)
			}
		}
	}
}

// emitRecursionFindings reports every recursion cycle in the call
// graph, classified by what the provers can say about it.
func (e *boundEngine) emitRecursionFindings() {
	must := e.v.mustPath()
	for _, entry := range e.g.order {
		if !e.g.recursive[entry] {
			continue
		}
		f := e.g.funcs[entry]
		if e.g.sccSize[entry] > 1 {
			// Mutual recursion: report at each call edge that stays in
			// the component. Never bounded by the prover.
			for _, c := range f.calls {
				if e.g.sccID[c.callee] == e.g.sccID[entry] && e.g.sccSize[c.callee] > 1 {
					e.v.add(c.site, Warning, "recursion",
						fmt.Sprintf("mutual recursion (%d functions on the call cycle); stack and cycle bounds are unbounded", e.g.sccSize[entry]),
						f.insns[c.site].in.String())
				}
			}
			continue
		}
		// Self-recursion: the trichotomy.
		for _, c := range f.calls {
			if c.callee != entry {
				continue
			}
			dis := f.insns[c.site].in.String()
			if must[c.site] {
				// The must-execute prefix runs through this call back
				// into the function unconditionally: every frame recurses,
				// so the stack provably overruns any finite reservation.
				e.v.addGuaranteed(c.site, Error, "recursion",
					"unguarded self-recursion on the must-execute path (guaranteed stack overrun)", dis)
			} else if frames, ok := e.proveSelfRecursion(entry); ok {
				e.v.add(c.site, Info, "recursion",
					fmt.Sprintf("self-recursion bounded: counter decrement certifies at most %d frames", frames), dis)
			} else {
				e.v.add(c.site, Warning, "recursion",
					"self-recursion without a provable counter decrement; stack and cycle bounds are unbounded", dis)
			}
		}
	}
}

// proveSelfRecursion certifies a frame-count bound for a self-recursive
// function by modeling the single self-call as the back edge of a loop
// headed at the function entry, then running the counted-loop prover
// with the counter's entry value taken from the external call sites.
func (e *boundEngine) proveSelfRecursion(entry uint32) (uint64, bool) {
	return memo(e.proveMemo, entry, func() (uint64, bool) { return e.proveSelfRecursionOnce(entry) })
}

func (e *boundEngine) proveSelfRecursionOnce(entry uint32) (uint64, bool) {
	f := e.g.funcs[entry]
	var self []uint32
	for _, c := range f.calls {
		if c.callee == entry {
			self = append(self, c.site)
		}
	}
	if len(self) != 1 {
		return 0, false
	}
	site := self[0]
	// Synthetic view: the self-call's successors become the function
	// entry (the recursion IS the back edge; the post-return suffix does
	// not influence how often frames are created).
	syn := &cgFunc{entry: f.entry, insns: f.insns,
		succs: make(map[uint32][]uint32, len(f.succs)),
		preds: make(map[uint32][]uint32)}
	for n, ss := range f.succs {
		if n == site {
			ss = []uint32{entry}
		}
		syn.succs[n] = ss
		for _, s := range ss {
			syn.preds[s] = append(syn.preds[s], n)
		}
	}
	comp, ok := sccContaining(sortedKeys(syn.insns), func(n uint32) []uint32 { return syn.succs[n] }, entry)
	if !ok {
		return 0, false
	}
	extEntry := func(counter isa.Reg) (uint32, bool) { return e.externalCallValue(entry, site, counter) }
	return e.v.loopBound(syn, comp, entry, site, extEntry)
}

// externalCallValue resolves one register's value at every non-self
// call site of fn across the whole call graph; all sites must agree on
// one proven constant.
func (e *boundEngine) externalCallValue(fn, selfSite uint32, r isa.Reg) (uint32, bool) {
	var val uint32
	have := false
	for _, ge := range e.g.order {
		for _, c := range e.g.funcs[ge].calls {
			if c.callee != fn || (ge == fn && c.site == selfSite) {
				continue
			}
			st, ok := e.v.states[c.site]
			if !ok {
				return 0, false
			}
			pv := st.regs[r]
			if !pv.isConst() {
				return 0, false
			}
			if have && pv.V != val {
				return 0, false
			}
			val, have = pv.V, true
		}
	}
	return val, have
}

// selfCallSite returns a self-recursive function's single self-call
// site (the prover has already established there is exactly one).
func (e *boundEngine) selfCallSite(entry uint32) uint32 {
	for _, c := range e.g.funcs[entry].calls {
		if c.callee == entry {
			return c.site
		}
	}
	return noCallSite
}

// resolve computes the callee-mode bound of one function for resource
// r, memoized over the call graph. A recursive function is bounded only
// by a certified self-recursion, and any bound only within the
// resource's ceiling.
func (e *boundEngine) resolve(r resource, entry uint32) (uint64, bool) {
	return memo(e.memos[r], entry, func() (uint64, bool) {
		f := e.g.funcs[entry]
		if f == nil {
			return 0, false
		}
		frames, selfCall := uint64(0), noCallSite
		if e.g.recursive[entry] {
			if e.g.sccSize[entry] > 1 {
				e.reason(entry, "mutual recursion")
				return 0, false
			}
			var ok bool
			if frames, ok = e.proveSelfRecursion(entry); !ok {
				e.reason(entry, "self-recursion without a provable counter decrement")
				return 0, false
			}
			selfCall = e.selfCallSite(entry)
		}
		total, ok := e.cost(r, f, selfCall, frames)
		if !ok {
			return 0, false
		}
		if total > resCeiling[r] {
			if frames > 0 {
				e.reason(entry, "recursive "+resName[r]+" bound exceeds the model ceiling")
			}
			return 0, false
		}
		return total, true
	})
}

// cost bounds f for resource r. A self-recursion certified to at most
// frames activations (0 for a plain function) has its self-call at
// selfCall cost nothing per frame and its nesting charged here: every
// nested stack frame costs its call-site depth plus the pushed return
// address, the deepest frame its full own excursion; every cycle frame
// costs its own bound.
func (e *boundEngine) cost(r resource, f *cgFunc, selfCall uint32, frames uint64) (uint64, bool) {
	if r == resStack {
		own, depth, ok := e.stackPass(f, selfCall)
		return satAdd(satMul(frames, depth+4), own), ok
	}
	own, ok := e.funcWCET(f, false, selfCall)
	return satMul(max(frames, 1), own), ok
}

// jumpsResolved refuses a function with an unresolved indirect jump:
// neither pass can follow it.
func (e *boundEngine) jumpsResolved(f *cgFunc) bool {
	if len(f.unresolvedJumps) > 0 {
		e.reason(f.unresolvedJumps[0], "indirect jump target unresolved")
		return false
	}
	return true
}

// stackPass runs the per-function frame dataflow: the interval of SP
// displacement below the function's entry SP at every instruction.
// Returns the worst-case excursion (including resolved callees), the
// displacement at the exempted self-call site, and whether the frame is
// certified (balanced at every RET, no direct SP arithmetic, no growth
// without bound).
func (e *boundEngine) stackPass(f *cgFunc, selfCall uint32) (maxExc, selfDepth uint64, ok bool) {
	type iv struct{ lo, hi int64 }
	if !e.jumpsResolved(f) {
		return 0, 0, false
	}
	states := map[uint32]iv{f.entry: {}}
	joins := make(map[uint32]int)
	work := []uint32{f.entry}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		d := f.insns[n]
		if !d.ok {
			continue // faults here; no frame effect, path ends
		}
		in := d.in
		st := states[n]
		out := st
		switch {
		case in.Op == isa.OpPUSH:
			out.lo += 4
			out.hi += 4
		case in.Op == isa.OpPOP:
			if in.Rd == isa.SP {
				e.v.add(n, Info, "sp-manipulated",
					"POP into SP makes the stack depth unanalyzable", in.String())
				e.reason(n, "POP into SP")
				return 0, 0, false
			}
			out.lo -= 4
			out.hi -= 4
		case in.Op == isa.OpADDI && in.Rd == isa.SP:
			out.lo -= int64(in.Imm)
			out.hi -= int64(in.Imm)
		case in.Op.IsCall() || in.Op == isa.OpRET:
			// SP effects are structural (return-address push/pop),
			// handled below; a balanced callee restores SP at the
			// return point.
		case in.Writes(isa.SP):
			e.v.add(n, Info, "sp-manipulated",
				"computed stack pointer makes the stack depth unanalyzable", in.String())
			e.reason(n, "computed stack pointer")
			return 0, 0, false
		}
		exc := out.hi
		switch {
		case in.Op == isa.OpRET:
			if st.lo != 0 || st.hi != 0 {
				e.v.add(n, Info, "unbalanced-frame",
					fmt.Sprintf("frame is not balanced at RET (SP displaced by [%d,%d] bytes)", -st.hi, -st.lo), in.String())
				e.reason(n, "unbalanced frame at RET")
				return 0, 0, false
			}
		case in.Op.IsCall():
			exc = st.hi + 4 // the pushed return address
			switch {
			case n == selfCall:
				if st.hi > int64(selfDepth) {
					selfDepth = uint64(st.hi)
				}
			case f.unresolvedAt(n):
				e.reason(n, "indirect call target unresolved")
				return 0, 0, false
			default:
				if c, okc := f.calleeAt(n); okc {
					cs, okb := e.resolve(resStack, c)
					if !okb {
						e.reason(n, "callee stack bound unavailable")
						return 0, 0, false
					}
					exc = st.hi + 4 + int64(cs)
				}
				// A direct CALL with an invalid target faults on arrival:
				// only the return-address push lands.
			}
		}
		if exc > int64(maxExc) {
			if exc > int64(maxStackBound) {
				e.reason(n, "stack bound exceeds the model ceiling")
				return 0, 0, false
			}
			maxExc = uint64(exc)
		}
		for _, s := range f.succs[n] {
			cur, seen := states[s]
			joined := out
			if seen {
				if out.lo > cur.lo {
					joined.lo = cur.lo
				}
				if out.hi < cur.hi {
					joined.hi = cur.hi
				}
				if joined == cur {
					continue
				}
			}
			joins[s]++
			if joins[s] > spJoinLimit {
				e.v.add(s, Info, "sp-manipulated",
					"stack depth grows without bound around a loop", f.insns[s].in.String())
				e.reason(s, "stack depth grows without bound around a loop")
				return 0, 0, false
			}
			states[s] = joined
			work = append(work, s)
		}
	}
	return maxExc, selfDepth, true
}

// funcWCET computes the worst-case cycle cost of one function. In
// callee mode (burst=false) that is the entry-to-RET worst case with
// SVCs as pass-through; in burst mode (the task's entry function) SVC
// successor edges are cut and every post-SVC resume point starts its
// own burst, so the result bounds any maximal run segment.
func (e *boundEngine) funcWCET(f *cgFunc, burst bool, selfCall uint32) (uint64, bool) {
	if !e.jumpsResolved(f) {
		return 0, false
	}
	succsOf := func(n uint32) []uint32 {
		if burst && f.insns[n].in.Op == isa.OpSVC {
			return nil // the burst ends here; the resume point starts a new one
		}
		return f.succs[n]
	}
	costOf := func(n uint32) (uint64, bool) {
		d := f.insns[n]
		if !d.ok {
			return 1, true // illegal instruction: the fault ends the burst
		}
		op := d.in.Op
		c := machine.InstructionCost(op)
		if op == isa.OpJMP || op.IsCondBranch() {
			// The interpreter charges the pipeline-refill surcharge on
			// every taken branch; JMP is always taken, conditional
			// branches are charged conservatively.
			c += machine.BranchTakenExtra
		}
		if op.IsCall() && n != selfCall {
			if f.unresolvedAt(n) {
				e.reason(n, "indirect call target unresolved")
				return 0, false
			}
			if t, okc := f.calleeAt(n); okc {
				cw, okb := e.resolve(resCycles, t)
				if !okb {
					e.reason(n, "callee cycle bound unavailable")
					return 0, false
				}
				c = satAdd(c, cw)
			}
			// Direct CALL with an invalid target: faults on arrival.
		}
		return c, true
	}
	entries := []uint32{f.entry}
	if burst {
		for _, s := range f.svcs {
			entries = append(entries, f.succs[s]...)
		}
	}
	return e.regionBound(f, entries, succsOf, costOf)
}

// regionBound computes the longest-path cost through the region
// reachable from entries, with every cycle collapsed via a certified
// loop bound: SCCs of the (possibly cut) graph must have a unique entry
// header and a counted exit; nested loops recurse with the header's
// incoming edges removed.
func (e *boundEngine) regionBound(f *cgFunc, entries []uint32, succsOf func(uint32) []uint32, costOf func(uint32) (uint64, bool)) (uint64, bool) {
	// Restrict to what the entries actually reach.
	nodes := reachable(entries, func(work []uint32, n uint32) []uint32 { return append(work, succsOf(n)...) })
	if len(nodes) == 0 {
		return 0, true
	}
	restricted := func(n uint32) []uint32 {
		var out []uint32
		for _, s := range succsOf(n) {
			if nodes[s] {
				out = append(out, s)
			}
		}
		return out
	}
	comps := tarjanSCC(sortedKeys(nodes), restricted)

	compIdx := make(map[uint32]int)
	for i, c := range comps {
		for _, n := range c {
			compIdx[n] = i
		}
	}
	entryComp := make(map[int]bool)
	for _, en := range entries {
		if i, ok := compIdx[en]; ok {
			entryComp[i] = true
		}
	}
	// Weight each component; collapse loops.
	weight := make([]uint64, len(comps))
	for i, comp := range comps {
		nontrivial := len(comp) > 1
		if !nontrivial {
			for _, s := range restricted(comp[0]) {
				if s == comp[0] {
					nontrivial = true
				}
			}
		}
		if !nontrivial {
			c, ok := costOf(comp[0])
			if !ok {
				return 0, false
			}
			weight[i] = c
			continue
		}
		inC := make(map[uint32]bool, len(comp))
		for _, n := range comp {
			inC[n] = true
		}
		// Unique entry header: region entries inside the component plus
		// targets of edges arriving from outside it.
		headers := make(map[uint32]bool)
		for _, en := range entries {
			if inC[en] {
				headers[en] = true
			}
		}
		for n := range nodes {
			if inC[n] {
				continue
			}
			for _, s := range restricted(n) {
				if inC[s] {
					headers[s] = true
				}
			}
		}
		if len(headers) != 1 {
			e.v.add(minOf(comp), Info, "unbounded-loop",
				"loop with multiple entry points; cycle bound is unbounded", "")
			e.reason(minOf(comp), "loop with multiple entry points")
			return 0, false
		}
		var h uint32
		for n := range headers {
			h = n
		}
		b, ok := e.v.loopBound(f, comp, h, noCallSite, nil)
		if !ok {
			e.v.add(h, Info, "unbounded-loop",
				"loop bound not provable (no counted exit); cycle bound is unbounded", f.insns[h].in.String())
			e.reason(h, "loop bound not provable")
			return 0, false
		}
		// Cost of one iteration: longest path from the header through
		// the component without returning to it. Nested loops collapse
		// recursively.
		iterSuccs := func(n uint32) []uint32 {
			var out []uint32
			for _, s := range succsOf(n) {
				if inC[s] && s != h {
					out = append(out, s)
				}
			}
			return out
		}
		iter, ok := e.regionBound(f, []uint32{h}, iterSuccs, costOf)
		if !ok {
			return 0, false
		}
		w := satMul(b, iter)
		if w > maxCycleBound {
			e.reason(h, "cycle bound exceeds the model ceiling")
			return 0, false
		}
		weight[i] = w
	}
	// Longest path over the condensation. tarjanSCC emits components in
	// reverse topological order (descendants first), so a single pass
	// suffices: best[i] = weight[i] + max over successor components.
	best := make([]uint64, len(comps))
	for i, comp := range comps {
		var m uint64
		for _, n := range comp {
			for _, s := range restricted(n) {
				if j := compIdx[s]; j != i && best[j] > m {
					m = best[j]
				}
			}
		}
		best[i] = satAdd(weight[i], m)
		if best[i] > maxCycleBound {
			e.reason(minOf(comp), "cycle bound exceeds the model ceiling")
			return 0, false
		}
	}
	var out uint64
	for i := range comps {
		if entryComp[i] && best[i] > out {
			out = best[i]
		}
	}
	return out, true
}

// reachable returns the nodes reachable from starts, starts included.
// next appends n's successors to the work list and returns it.
func reachable(starts []uint32, next func(work []uint32, n uint32) []uint32) map[uint32]bool {
	seen := make(map[uint32]bool)
	work := append([]uint32(nil), starts...)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if !seen[n] {
			seen[n] = true
			work = next(work, n)
		}
	}
	return seen
}

func minOf(comp []uint32) uint32 {
	m := comp[0]
	for _, n := range comp {
		if n < m {
			m = n
		}
	}
	return m
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[uint32]V) []uint32 {
	out := make([]uint32, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tarjanSCC computes the strongly connected components of the graph
// restricted to nodes, iteratively, emitting components in reverse
// topological order of the condensation.
func tarjanSCC(nodes []uint32, succsOf func(uint32) []uint32) [][]uint32 {
	index := make(map[uint32]int, len(nodes))
	low := make(map[uint32]int, len(nodes))
	onStack := make(map[uint32]bool, len(nodes))
	inGraph := make(map[uint32]bool, len(nodes))
	for _, n := range nodes {
		inGraph[n] = true
	}
	var stack []uint32
	var comps [][]uint32
	next := 0

	type frame struct {
		node uint32
		edge int
	}
	for _, root := range nodes {
		if _, seen := index[root]; seen {
			continue
		}
		var frames []frame
		push := func(n uint32) {
			index[n] = next
			low[n] = next
			next++
			stack = append(stack, n)
			onStack[n] = true
			frames = append(frames, frame{node: n})
		}
		push(root)
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			ss := succsOf(fr.node)
			if fr.edge < len(ss) {
				s := ss[fr.edge]
				fr.edge++
				if !inGraph[s] {
					continue
				}
				if _, seen := index[s]; !seen {
					push(s)
				} else if onStack[s] && index[s] < low[fr.node] {
					low[fr.node] = index[s]
				}
				continue
			}
			n := fr.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[n] < low[p.node] {
					low[p.node] = low[n]
				}
			}
			if low[n] == index[n] {
				var comp []uint32
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp = append(comp, top)
					if top == n {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// sccContaining returns the strongly connected component containing
// node, or false if the node lies on no cycle.
func sccContaining(nodes []uint32, succsOf func(uint32) []uint32, node uint32) ([]uint32, bool) {
	for _, comp := range tarjanSCC(nodes, succsOf) {
		for _, n := range comp {
			if n != node {
				continue
			}
			if len(comp) > 1 {
				return comp, true
			}
			for _, s := range succsOf(n) {
				if s == n {
					return comp, true
				}
			}
			return nil, false
		}
	}
	return nil, false
}

// burstWCET bounds the worst-case machine cycles of one scheduling
// burst of the task's entry function.
func (e *boundEngine) burstWCET(entry uint32) (uint64, bool) {
	f := e.g.funcs[entry]
	if f == nil {
		return 0, false
	}
	if e.g.recursive[entry] {
		// A recursive task entry point is never burst-bounded: even a
		// certified frame count gives no SVC-to-SVC segmentation.
		e.reason(entry, "recursive entry function")
		return 0, false
	}
	return e.funcWCET(f, true, noCallSite)
}
