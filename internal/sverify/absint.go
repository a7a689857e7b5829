package sverify

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/machine"
)

// This file is the lightweight abstract interpreter: it propagates
// LDI/LUI/LDI32-derived register values (and SP-relative offsets)
// through the CFG and flags memory accesses that provably fall outside
// the image's declared extent — accesses the EA-MPU would deny, bus
// errors, byte accesses to MMIO — plus the syscall-allowlist and
// stack-discipline checks.
//
// The value lattice and per-instruction register transfer live in
// lattice.go; this file adds call-depth tracking, relocation provenance,
// and finding emission from converged states.

// astate is the abstract machine state at one program point: the eight
// registers plus the call-depth interval [dlo, dhi] (CALLs minus RETs
// since entry).
type astate struct {
	regs     absRegs
	dlo, dhi int32
}

func joinState(a, b astate) astate {
	var out astate
	for i := range a.regs {
		out.regs[i] = joinValue(a.regs[i], b.regs[i])
	}
	out.dlo = min32(a.dlo, b.dlo)
	out.dhi = max32(a.dhi, b.dhi)
	return out
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// interpret runs the dataflow to fixpoint over the reachable
// instructions, then makes one final pass emitting the access, syscall
// and stack-discipline findings from the converged states. Findings
// are only emitted after convergence so a diagnostic never rests on an
// intermediate (over-precise) state.
func (v *verifier) interpret() {
	if len(v.reach) == 0 {
		return
	}
	// Entry state: nothing is known about the registers (a secure task
	// may be re-entered with a restored context), except that SP starts
	// at the initial stack top.
	var entry astate
	entry.regs[isa.SP] = stackValue(0)

	// maxFrames bounds the call-depth interval: one return address per
	// frame is the floor, so more frames than stack words is already
	// overflow. Depth grows only along CALL edges (a RET has no flow
	// successors), so a depth above the number of reachable CALL sites
	// took a call cycle that pumps it without bound: widen it straight
	// to maxFrames rather than one frame per fixpoint pass, which would
	// let the header's stack size set the running time.
	maxFrames := int32(v.im.StackSize/4) + 1
	var callSites int32
	for _, d := range v.reach {
		if d.ok && d.in.Op == isa.OpCALL {
			callSites++
		}
	}
	deeper := func(depth int32) int32 {
		if depth >= callSites {
			return maxFrames
		}
		return min32(depth+1, maxFrames)
	}

	states := map[uint32]astate{v.im.Entry: entry}
	work := []uint32{v.im.Entry}
	propagate := func(to uint32, st astate) {
		if _, ok := v.reach[to]; !ok {
			return
		}
		cur, seen := states[to]
		if seen {
			joined := joinState(cur, st)
			if joined == cur {
				return
			}
			states[to] = joined
		} else {
			states[to] = st
		}
		work = append(work, to)
	}
	for len(work) > 0 {
		off := work[0]
		work = work[1:]
		d := v.reach[off]
		if !d.ok {
			continue
		}
		v.flow(off, d, v.transfer(d.in, off, states[off]), propagate, deeper)
	}

	// Retain the converged states: the call graph resolves indirect
	// targets and the bound engine reads loop-entry counter values from
	// them.
	v.states = states

	// Final pass: emit findings from the converged states.
	for _, off := range v.order {
		d := v.reach[off]
		if !d.ok {
			continue
		}
		if st, ok := states[off]; ok {
			v.checkInsn(d.in, off, st, maxFrames)
		}
	}
}

// flow propagates the post-state of the instruction at off along its
// CFG edges. CALL edges adjust SP and the depth interval on the way
// into the callee; the fallthrough (return point) assumes a balanced,
// register-clobbering callee — SP and depth preserved, registers Top.
func (v *verifier) flow(off uint32, d decoded, post astate, propagate func(uint32, astate), deeper func(int32) int32) {
	e := v.edgesOf(off, d)
	if e.inText {
		st := post
		if d.in.Op == isa.OpCALL {
			st.regs[isa.SP] = spAdd(post.regs[isa.SP], -4)
			st.dlo, st.dhi = deeper(post.dlo), deeper(post.dhi)
		}
		propagate(e.target, st)
	}
	if e.next {
		st := post
		if d.in.Op.IsCall() {
			st = astate{dlo: post.dlo, dhi: post.dhi}
			st.regs[isa.SP] = post.regs[isa.SP]
		}
		propagate(off+d.size, st)
	}
}

// spAdd offsets a stack-relative value; anything else degrades to Top.
// Unlike addValue it deliberately drops relocation provenance on
// constants: a relocated value used as SP is already suspicious enough
// that the absolute-address checks should see it.
func spAdd(a absValue, delta int32) absValue {
	switch a.K {
	case kindStack:
		return stackValue(a.delta() + delta)
	case kindConst:
		return constValue(a.V + uint32(delta))
	}
	return absValue{}
}

// transfer computes the post-state of one instruction. Register effects
// come from transferRegs; this adds the call-depth interval (RET). It
// never emits findings (checkInsn does, from converged states).
func (v *verifier) transfer(in isa.Instruction, off uint32, st astate) astate {
	out := st
	transferRegs(in, &out.regs, in.Op == isa.OpLDI32 && v.relocatedImm(off))
	if in.Op == isa.OpRET {
		out.dlo = max32(out.dlo-1, 0)
		out.dhi = max32(out.dhi-1, 0)
	}
	return out
}

// checkInsn emits the access, syscall and stack-discipline findings for
// one instruction from its converged pre-state.
func (v *verifier) checkInsn(in isa.Instruction, off uint32, st astate, maxFrames int32) {
	switch in.Op {
	case isa.OpLD:
		v.checkAccess(off, in, st.regs[in.Rs], in.Imm, 4, false)
	case isa.OpLDB:
		v.checkAccess(off, in, st.regs[in.Rs], in.Imm, 1, false)
	case isa.OpST:
		v.checkAccess(off, in, st.regs[in.Rd], in.Imm, 4, true)
	case isa.OpSTB:
		v.checkAccess(off, in, st.regs[in.Rd], in.Imm, 1, true)
	case isa.OpPUSH:
		v.checkAccess(off, in, spAdd(st.regs[isa.SP], -4), 0, 4, true)
	case isa.OpPOP:
		v.checkAccess(off, in, st.regs[isa.SP], 0, 4, false)
	case isa.OpCALL:
		v.checkAccess(off, in, spAdd(st.regs[isa.SP], -4), 0, 4, true)
		if st.dhi+1 > maxFrames {
			v.add(off, Warning, "call-depth",
				fmt.Sprintf("call depth may exceed the %d-byte stack reservation (recursion?)", v.im.StackSize), in.String())
		}
	case isa.OpRET:
		if st.dlo == 0 {
			v.add(off, Warning, "ret-no-call",
				"RET may execute with no matching CALL (pops past the initial stack pointer)", in.String())
		}
	case isa.OpSVC:
		if n := uint16(in.Imm); !v.cfg.Syscalls[n] {
			v.addGuaranteed(off, Error, "syscall-unknown",
				fmt.Sprintf("service call %d is not in the platform allowlist (the kernel kills the task)", n), in.String())
		}
	}
}

// checkAccess validates one memory access given the abstract base
// value. sz is the access width in bytes; store distinguishes writes.
func (v *verifier) checkAccess(off uint32, in isa.Instruction, base absValue, imm int16, sz uint32, store bool) {
	dis := in.String()
	switch base.K {
	case kindTop:
		return

	case kindStack:
		// Image offset of the access, relative to base 0: the initial
		// SP sits at loadSize.
		soff := int64(v.stackTop) + int64(base.delta()) + int64(imm)
		if soff < int64(v.stackLow) {
			v.add(off, Warning, "stack-oob",
				fmt.Sprintf("SP-relative access %d bytes below the %d-byte stack reservation", int64(v.stackLow)-soff, v.im.StackSize), dis)
		} else if soff+int64(sz) > int64(v.extent) {
			v.add(off, Warning, "stack-oob",
				"SP-relative access beyond the task's memory region", dis)
		}

	case kindConst:
		if base.Reloc {
			// Image-relative address: the loader adds the (granule-
			// aligned) base, so alignment and extent are decidable.
			eff := int64(base.V) + int64(imm)
			if sz == 4 && eff%4 != 0 {
				v.addGuaranteed(off, Error, "misaligned-access",
					fmt.Sprintf("32-bit access at image offset %#x is not word-aligned (bus error)", eff), dis)
			}
			if eff < 0 || eff+int64(sz) > int64(v.extent) {
				msg := fmt.Sprintf("access at image offset %#x is outside the task's %d-byte region (EA-MPU has no rule for it)", eff, v.extent)
				if eff >= int64(v.cfg.RAMSize) {
					// Beyond the end of RAM wherever the image lands.
					v.addGuaranteed(off, Error, "oob-access", msg+"; beyond the end of RAM at any load address", dis)
				} else {
					v.add(off, Error, "oob-access", msg, dis)
				}
			} else if store && eff+int64(sz) <= int64(v.textLen) {
				v.add(off, Warning, "store-to-text",
					"store into the code section (self-modifying code defeats measurement)", dis)
			}
			return
		}
		// Absolute address (a non-relocated constant: MMIO registers,
		// or a position-dependent RAM address — suspicious in a
		// relocatable image).
		addr := uint32(int64(base.V) + int64(imm))
		switch {
		case addr >= machine.MMIOBase:
			if sz == 1 {
				v.addGuaranteed(off, Error, "mmio-byte-access",
					fmt.Sprintf("byte access to MMIO register %#x (bus error: MMIO is word-addressed)", addr), dis)
			} else if addr%4 != 0 {
				v.addGuaranteed(off, Error, "misaligned-access",
					fmt.Sprintf("misaligned 32-bit access to MMIO register %#x (bus error)", addr), dis)
			}
		case addr < machine.RAMBase:
			v.addGuaranteed(off, Error, "null-access",
				fmt.Sprintf("access to unmapped low memory %#x (bus error)", addr), dis)
		case int64(addr)+int64(sz) > int64(machine.RAMBase)+int64(v.cfg.RAMSize):
			v.addGuaranteed(off, Error, "oob-access",
				fmt.Sprintf("absolute address %#x is beyond the end of RAM (bus error)", addr), dis)
		default:
			if sz == 4 && addr%4 != 0 {
				v.addGuaranteed(off, Error, "misaligned-access",
					fmt.Sprintf("misaligned 32-bit access to %#x (bus error)", addr), dis)
			}
			v.add(off, Warning, "abs-ram-address",
				fmt.Sprintf("absolute RAM address %#x in a relocatable image (valid only at one load address)", addr), dis)
		}
	}
}
