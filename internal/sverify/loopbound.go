package sverify

import (
	"sort"

	"repro/internal/isa"
)

// Loop-bound inference: given one loop (a strongly connected component
// of a function's instruction graph), prove an upper bound on the
// number of times its header can execute per entry into the loop — or
// refuse. The only accepted shape is the canonical counted loop the
// assembler and compiler emit:
//
//	li   rX, C        ; before the loop (abstract-interpreter constant)
//	loop: ...
//	      addi rX, s  ; the only write to rX inside the loop
//	      cmpi rX, K
//	      bCC  ...    ; conditional exit
//
// Everything about the match is one-sided: a returned bound is sound
// (the header cannot execute more often), and anything the matcher
// cannot prove — multiple counter writes, calls inside the loop, an
// entry value the lattice does not pin, potential wraparound — returns
// no bound, which the caller reports as Unbounded. Never a wrong
// number.

// cmpRel is the exit relation of a counted loop, after folding the
// branch direction (exit on taken vs. on fallthrough) into the
// comparison.
type cmpRel uint8

const (
	relEQ cmpRel = iota // exit when counter == K
	relNE               // exit when counter != K
	relLT               // exit when counter <  K
	relGE               // exit when counter >= K
)

// branchRel maps a conditional branch opcode to its taken-relation and
// comparison domain (signed vs. unsigned, mirroring the machine's
// N and C flags).
func branchRel(op isa.Op) (rel cmpRel, unsigned, ok bool) {
	switch op {
	case isa.OpBEQ:
		return relEQ, false, true
	case isa.OpBNE:
		return relNE, false, true
	case isa.OpBLT:
		return relLT, false, true
	case isa.OpBGE:
		return relGE, false, true
	case isa.OpBLTU:
		return relLT, true, true
	case isa.OpBGEU:
		return relGE, true, true
	}
	return 0, false, false
}

// negate flips a relation (exit on the fallthrough = exit when the
// branch condition is false).
func (r cmpRel) negate() cmpRel {
	switch r {
	case relEQ:
		return relNE
	case relNE:
		return relEQ
	case relLT:
		return relGE
	default:
		return relLT
	}
}

// solveExit returns the smallest i >= 0 with rel(c0 + i*step, k), where
// all values live in [lo, hi] (the signed or unsigned 32-bit domain).
// It refuses whenever the true machine (which wraps modulo 2^32) could
// diverge from this integer model before the exit.
func solveExit(c0, step, k, lo, hi int64, rel cmpRel) (uint64, bool) {
	ceilDiv := func(a, b int64) int64 { return (a + b - 1) / b } // a,b > 0
	switch rel {
	case relEQ:
		if step == 0 {
			return 0, false // c0 == k would spin forever; c0 != k never exits
		}
		diff := k - c0
		if diff%step != 0 {
			return 0, false
		}
		i := diff / step
		if i < 0 {
			return 0, false
		}
		// Monotone from c0 to k: both endpoints in domain, no wrap.
		return uint64(i), true
	case relNE:
		// Exits within one step of entry regardless of evaluation order;
		// the caller's +1 safety margin makes the flat answer sound.
		if step == 0 && c0 == k {
			return 0, false
		}
		return 1, true
	case relLT:
		if c0 < k {
			return 0, true
		}
		if step >= 0 {
			return 0, false // never exits without wrapping
		}
		i := ceilDiv(c0-(k-1), -step)
		if exit := c0 + i*step; exit < lo {
			return 0, false // would wrap below the domain first
		}
		return uint64(i), true
	default: // relGE
		if c0 >= k {
			return 0, true
		}
		if step <= 0 {
			return 0, false
		}
		i := ceilDiv(k-c0, step)
		if exit := c0 + i*step; exit > hi {
			return 0, false // would wrap above the domain first
		}
		return uint64(i), true
	}
}

// noCallSite is the allowCall sentinel: no call is exempt.
const noCallSite = ^uint32(0)

// loopBound proves an upper bound on the header executions of the SCC
// comp (with the given header) inside f, or refuses.
//
// allowCall names one call site exempt from the no-calls-in-loop rule:
// the bounded-recursion prover models a self-call as the back edge of a
// loop whose header is the function entry, and passes the call site
// here. extEntry, when non-nil, supplies the counter's value on entry
// edges the intra-procedural graph cannot see (the external call sites
// of a recursive function); it must refuse unless the value is a single
// proven constant.
func (v *verifier) loopBound(f *cgFunc, comp []uint32, header uint32, allowCall uint32, extEntry func(isa.Reg) (uint32, bool)) (uint64, bool) {
	inS := make(map[uint32]bool, len(comp))
	for _, n := range comp {
		inS[n] = true
	}
	// Calls inside the loop clobber every register interprocedurally;
	// no counter survives them. (The exempted self-call writes only SP,
	// which Writes() still reports — a counter in SP is rejected below.)
	for _, n := range comp {
		if n == allowCall {
			continue
		}
		if op := f.insns[n].in.Op; op.IsCall() {
			return 0, false
		}
	}
	// cycleAvoids reports whether some in-loop cycle through from
	// avoids the node avoid.
	cycleAvoids := func(from, avoid uint32) bool {
		next := func(work []uint32, n uint32) []uint32 {
			for _, s := range f.succs[n] {
				if inS[s] && s != avoid {
					work = append(work, s)
				}
			}
			return work
		}
		return reachable(next(nil, from), next)[from]
	}
	sorted := append([]uint32(nil), comp...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	best := uint64(0)
	found := false
	for _, br := range sorted {
		din := f.insns[br].in
		rel, unsigned, ok := branchRel(din.Op)
		if !ok {
			continue
		}
		// Which side leaves the loop? A side with no edge (invalid
		// target, fall off the end) leaves it too — by faulting.
		fall := br + f.insns[br].size
		e := v.edgesOf(br, f.insns[br])
		exitOnTaken := !e.inText || !inS[e.target]
		exitOnFall := !inS[fall] || fall >= v.textLen
		if exitOnTaken == exitOnFall {
			continue // both stay in (not an exit) or both leave (not in an SCC)
		}
		if exitOnFall {
			rel = rel.negate()
		}
		// The flag source: the branch's unique in-function predecessor
		// must be an adjacent CMPI inside the loop.
		preds := f.preds[br]
		if len(preds) != 1 || !inS[preds[0]] {
			continue
		}
		cmp := f.insns[preds[0]]
		if cmp.in.Op != isa.OpCMPI || preds[0]+cmp.size != br {
			continue
		}
		counter := cmp.in.Rd
		// Exactly one write to the counter inside the loop: one ADDI.
		var steps []uint32
		bad := false
		for _, n := range sorted {
			nin := f.insns[n].in
			if !nin.Writes(counter) {
				continue
			}
			if nin.Op == isa.OpADDI && nin.Rd == counter && nin.Imm != 0 {
				steps = append(steps, n)
			} else {
				bad = true
				break
			}
		}
		if bad || len(steps) != 1 {
			continue
		}
		stepSite := steps[0]
		stepVal := int64(f.insns[stepSite].in.Imm)
		// The counter step, the comparison and the exit branch must all
		// execute exactly once per iteration: on every header-to-header
		// cycle, and never inside a nested cycle that avoids the header.
		sound := true
		for _, node := range []uint32{stepSite, preds[0], br} {
			onEvery := node == header || !cycleAvoids(header, node)
			inInner := node != header && cycleAvoids(node, header)
			if !onEvery || inInner {
				sound = false
				break
			}
		}
		if !sound {
			continue
		}
		// The counter's value on every entry edge into the loop.
		c0v, ok := v.loopEntryValue(f, inS, header, counter, extEntry)
		if !ok {
			continue
		}
		var c0, k, lo, hi int64
		if unsigned {
			c0, k = int64(c0v), int64(uint32(int32(cmp.in.Imm)))
			lo, hi = 0, int64(^uint32(0))
		} else {
			c0, k = int64(int32(c0v)), int64(cmp.in.Imm)
			lo, hi = -(1 << 31), 1<<31-1
		}
		i, ok := solveExit(c0, stepVal, k, lo, hi, rel)
		if !ok {
			continue
		}
		// +1: the iteration that takes the exit still executes the
		// header, and the step-before-compare vs. compare-before-step
		// orders differ by at most one header visit.
		b := i + 2
		if !found || b < best {
			best, found = b, true
		}
	}
	return best, found
}

// loopEntryValue resolves the counter's constant value on every edge
// entering the loop from outside it. All entry edges — intra-procedural
// predecessors and, via extEntry, external call sites — must agree on
// one non-relocated constant.
func (v *verifier) loopEntryValue(f *cgFunc, inS map[uint32]bool, header uint32, counter isa.Reg, extEntry func(isa.Reg) (uint32, bool)) (uint32, bool) {
	var val absValue
	have := false
	for _, p := range f.preds[header] {
		if inS[p] {
			continue // back edge
		}
		st, ok := v.states[p]
		if !ok {
			return 0, false
		}
		post := v.transfer(f.insns[p].in, p, st)
		pv := post.regs[counter]
		if pv.K != kindConst || pv.Reloc {
			return 0, false
		}
		if have && pv.V != val.V {
			return 0, false
		}
		val, have = pv, true
	}
	if extEntry != nil {
		ev, ok := extEntry(counter)
		if !ok {
			return 0, false
		}
		if have && ev != val.V {
			return 0, false
		}
		val, have = constValue(ev), true
	}
	if !have {
		return 0, false // loop entered at the function entry: no preheader
	}
	return val.V, true
}
