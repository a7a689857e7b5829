package machine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/eampu"
	"repro/internal/isa"
)

// Differential tests for the production engine: a reference machine
// (FastPath=false: pure interpretation, nothing compiled) and a
// production machine (FastPath=true: decode/decision caches plus
// superblocks) execute the same firmware through Run slices, and after
// every slice the complete architectural state — cycles, registers, EIP,
// EFLAGS, stop reasons, fault text, violation counts, retire counts,
// per-instruction traces — must be bit-for-bit identical. The rig
// drives Run (not Step) because superblocks only engage inside Run.

// pairRig holds the two machines fed identical inputs.
type pairRig struct {
	ref, prod *Machine
	rtr, ptr  stepTrace
}

func newPairRig(ramSize uint32) *pairRig {
	r := &pairRig{ref: New(ramSize), prod: New(ramSize)}
	r.ref.FastPath = false
	r.prod.FastPath = true
	return r
}

func (r *pairRig) trace() {
	r.ref.OnStep = r.rtr.hook()
	r.prod.OnStep = r.ptr.hook()
}

func (r *pairRig) each(f func(m *Machine)) {
	f(r.ref)
	f(r.prod)
}

// compare checks full architectural equality across the two machines.
func (r *pairRig) compare(t *testing.T, tag string, rr, rp RunResult) {
	t.Helper()
	m, ref := r.prod, r.ref
	if rp.Reason != rr.Reason {
		t.Fatalf("%s: reason prod=%v ref=%v", tag, rp.Reason, rr.Reason)
	}
	if rp.Steps != rr.Steps {
		t.Fatalf("%s: steps prod=%d ref=%d", tag, rp.Steps, rr.Steps)
	}
	if rp.SVC != rr.SVC {
		t.Fatalf("%s: svc prod=%d ref=%d", tag, rp.SVC, rr.SVC)
	}
	switch {
	case (rp.Fault == nil) != (rr.Fault == nil):
		t.Fatalf("%s: fault prod=%v ref=%v", tag, rp.Fault, rr.Fault)
	case rp.Fault != nil && rp.Fault.Error() != rr.Fault.Error():
		t.Fatalf("%s: fault text prod=%q ref=%q", tag, rp.Fault, rr.Fault)
	}
	if a, b := m.Cycles(), ref.Cycles(); a != b {
		t.Fatalf("%s: cycles prod=%d ref=%d", tag, a, b)
	}
	if a, b := m.EIP(), ref.EIP(); a != b {
		t.Fatalf("%s: eip prod=%#x ref=%#x", tag, a, b)
	}
	if a, b := m.EFLAGS(), ref.EFLAGS(); a != b {
		t.Fatalf("%s: eflags prod=%#x ref=%#x", tag, a, b)
	}
	if a, b := m.InsnRetired(), ref.InsnRetired(); a != b {
		t.Fatalf("%s: retired prod=%d ref=%d", tag, a, b)
	}
	if a, b := m.MPU.Violations(), ref.MPU.Violations(); a != b {
		t.Fatalf("%s: violations prod=%d ref=%d", tag, a, b)
	}
	for i := 0; i < int(isa.NumRegs); i++ {
		if a, b := m.Reg(isa.Reg(i)), ref.Reg(isa.Reg(i)); a != b {
			t.Fatalf("%s: r%d prod=%#x ref=%#x", tag, i, a, b)
		}
	}
	if len(r.ptr.pcs) != len(r.rtr.pcs) {
		t.Fatalf("%s: trace length prod=%d ref=%d", tag, len(r.ptr.pcs), len(r.rtr.pcs))
	}
	for i := range r.ptr.pcs {
		if r.ptr.pcs[i] != r.rtr.pcs[i] || r.ptr.ops[i] != r.rtr.ops[i] {
			t.Fatalf("%s: trace[%d] prod=(%#x,%v) ref=(%#x,%v)",
				tag, i, r.ptr.pcs[i], r.ptr.ops[i], r.rtr.pcs[i], r.rtr.ops[i])
		}
	}
}

// runSlices drives both machines through Run slices of the given
// budgets (cycled) until a non-budget, non-IRQ stop or maxSlices, then
// compares their RAM.
func (r *pairRig) runSlices(t *testing.T, budgets []uint64, maxSlices int) {
	t.Helper()
	for i := 0; i < maxSlices; i++ {
		budget := budgets[i%len(budgets)]
		rr := r.ref.Run(budget)
		rp := r.prod.Run(budget)
		r.compare(t, fmt.Sprintf("slice %d (budget %d)", i, budget), rr, rp)
		if rr.Reason != StopBudget && rr.Reason != StopIRQ {
			break
		}
	}
	r.compareRAM(t, "after the last slice")
}

// kernelIters is kernelProgram's loop count: twice the warm-up gate, so
// each of the loop's dispatch PCs compiles halfway through and runs
// compiled for the other half.
const kernelIters = 2 * sbCompileThreshold

// kernelProgram is a compute loop with const-addressed and pointer
// memory traffic, calls and stack ops — the shape superblocks fuse.
func kernelProgram() isa.Program {
	var p isa.Program
	// fn at word 0: r0 = r0*2 + 3; ret
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R4, Imm: 2})
	p.Emit(isa.Instruction{Op: isa.OpMUL, Rd: isa.R0, Rs: isa.R4})
	p.Emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R0, Imm: 3})
	p.Emit(isa.Instruction{Op: isa.OpRET})
	// entry at word 4
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: kernelIters}) // counter
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R2, Imm: 0})           // sum
	p.Emit(isa.Instruction{Op: isa.OpLDI32, Rd: isa.R3, Imm32: 0x9000})  // buffer
	// loop at word 8:
	p.Emit(isa.Instruction{Op: isa.OpMOV, Rd: isa.R0, Rs: isa.R1})
	p.Emit(isa.Instruction{Op: isa.OpPUSH, Rs: isa.R1})
	p.Emit(isa.Instruction{Op: isa.OpCALL, Imm: -11}) // fn (word 0)
	p.Emit(isa.Instruction{Op: isa.OpPOP, Rd: isa.R1})
	p.Emit(isa.Instruction{Op: isa.OpADD, Rd: isa.R2, Rs: isa.R0})
	p.Emit(isa.Instruction{Op: isa.OpST, Rd: isa.R3, Rs: isa.R2, Imm: 0})  // pointer store
	p.Emit(isa.Instruction{Op: isa.OpLD, Rd: isa.R5, Rs: isa.R3, Imm: 0})  // pointer load
	p.Emit(isa.Instruction{Op: isa.OpSTB, Rd: isa.R3, Rs: isa.R1, Imm: 8}) // byte traffic
	p.Emit(isa.Instruction{Op: isa.OpLDB, Rd: isa.R6, Rs: isa.R3, Imm: 8})
	p.Emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R1, Imm: -1})
	p.Emit(isa.Instruction{Op: isa.OpCMPI, Rd: isa.R1, Imm: 0})
	p.Emit(isa.Instruction{Op: isa.OpBNE, Imm: -12}) // loop (word 8)
	p.Emit(isa.Instruction{Op: isa.OpHLT})
	return p
}

// TestSuperblockDifferentialKernel runs the compute kernel through Run
// slices with deliberately awkward budgets (including budgets smaller
// than one block) and requires equality after every slice.
func TestSuperblockDifferentialKernel(t *testing.T) {
	for _, budgets := range [][]uint64{
		{1 << 20},                 // one big slice
		{1, 2, 3, 5, 7, 11, 13},   // tiny slices: constant fallback
		{17, 100, 1, 1000, 2, 50}, // mixed
	} {
		r := newPairRig(64 << 10)
		r.trace()
		p := kernelProgram()
		r.each(func(m *Machine) {
			m.LoadBytes(0x2000, p.Bytes())
			m.SetEIP(0x2000 + 4*4)
			m.SetReg(isa.SP, 0x8000)
		})
		r.runSlices(t, budgets, 100000)
		if r.prod.Reg(isa.R2) == 0 {
			t.Fatal("kernel did not run")
		}
		if st := r.prod.Stats(); st.SBHits == 0 && budgets[0] > 100 {
			t.Fatalf("superblock engine never engaged: %+v", st)
		}
	}
}

// TestSuperblockDifferentialSelfModifyInBlock patches an instruction
// *later in the same basic block* as the store, with the store already
// compiled: the block must split at the store and the very next
// instruction must execute the new bytes, on both engines
// identically. The store's target register is set outside the block so
// warm-up passes (which aim it at scratch data) get the block hot and
// compiled from pristine bytes before the final pass aims it at the
// block's own text.
func TestSuperblockDifferentialSelfModifyInBlock(t *testing.T) {
	const base = 0x2000
	const target = base + 2*4 // word 2: the LDI R1 below
	var p isa.Program
	p.Emit(isa.Instruction{Op: isa.OpST, Rd: isa.R2, Rs: isa.R3, Imm: 0}) // word 0: runtime target
	p.Emit(isa.Instruction{Op: isa.OpNOP})                                // word 1
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: 111})          // word 2: overwritten
	p.Emit(isa.Instruction{Op: isa.OpHLT})

	r := newPairRig(64 << 10)
	r.trace()
	r.each(func(m *Machine) {
		m.LoadBytes(base, p.Bytes())
		m.SetReg(isa.SP, 0x8000)
		m.SetReg(isa.R3, patchedWord())
	})
	// Warm passes: the store writes scratch data; the block compiles.
	for pass := 0; pass < sbCompileThreshold+1; pass++ {
		r.each(func(m *Machine) {
			m.SetEIP(base)
			m.SetReg(isa.R2, 0x9000)
			m.SetReg(isa.R1, 0)
		})
		r.runSlices(t, []uint64{1 << 20}, 10)
		if got := r.prod.Reg(isa.R1); got != 111 {
			t.Fatalf("warm pass %d: r1 = %d, want 111", pass, got)
		}
	}
	if st := r.prod.Stats(); st.SBHits == 0 {
		t.Fatalf("block never compiled during warm-up: %+v", st)
	}

	// Hot pass: the compiled store now aims at word 2 of its own block.
	r.each(func(m *Machine) {
		m.SetEIP(base)
		m.SetReg(isa.R2, target)
		m.SetReg(isa.R1, 0)
	})
	r.runSlices(t, []uint64{1 << 20}, 10)
	if got := r.prod.Reg(isa.R1); got != 222 {
		t.Fatalf("patched r1 = %d, want 222", got)
	}
	if st := r.prod.Stats(); st.SBInvalidations == 0 {
		t.Fatalf("store into compiled code did not invalidate: %+v", st)
	}

	// The patched code is now stable; re-warming and re-running must
	// recompile from the new bytes and still match the reference.
	for pass := 0; pass < sbCompileThreshold+1; pass++ {
		r.each(func(m *Machine) {
			m.SetEIP(base)
			m.SetReg(isa.R2, 0x9000)
			m.SetReg(isa.R1, 0)
		})
		r.runSlices(t, []uint64{1 << 20}, 10)
		if got := r.prod.Reg(isa.R1); got != 222 {
			t.Fatalf("post-patch pass %d: r1 = %d, want 222", pass, got)
		}
	}
}

// TestRewriteOwnBytes pins the rule that an instruction runs as it was
// fetched even when its own bytes change under it: Step reads the
// decoded form through the pointer fetch returned, so nothing may
// refill that entry before the instruction completes. An OnStep hook
// rewrites the current LDI (LoadBytes), a store and a call's push each
// overwrite their own word, and on both engines, driven by Run and by
// Step, the write takes effect only at the next fetch of those bytes.
func TestRewriteOwnBytes(t *testing.T) {
	const base = 0x2000
	word := func(in isa.Instruction) []byte { return isa.Encode(nil, in) }
	ldi111 := isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: 111}
	ldi222 := isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: 222}
	addi := isa.Instruction{Op: isa.OpADDI, Rd: isa.R6, Imm: 1}
	var p isa.Program
	p.Emit(ldi111)                                                        // word 0: the hook rewrites it
	p.Emit(isa.Instruction{Op: isa.OpADD, Rd: isa.R2, Rs: isa.R1})        // word 1
	p.Emit(isa.Instruction{Op: isa.OpST, Rd: isa.R3, Rs: isa.R5, Imm: 0}) // word 2: stores into r3
	p.Emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R4, Imm: -1})          // word 3
	p.Emit(isa.Instruction{Op: isa.OpCMPI, Rd: isa.R4, Imm: 0})           // word 4
	p.Emit(isa.Instruction{Op: isa.OpBNE, Imm: -6})                       // word 5: to word 0
	p.Emit(isa.Instruction{Op: isa.OpHLT})                                // word 6
	p.Emit(isa.Instruction{Op: isa.OpCALL, Imm: 1})                       // word 7: pushes onto itself
	p.Emit(isa.Instruction{Op: isa.OpHLT})                                // word 8
	p.Emit(isa.Instruction{Op: isa.OpRET})                                // word 9

	for _, drive := range []string{"Run", "Step"} {
		t.Run(drive, func(t *testing.T) {
			r := newPairRig(64 << 10)
			armed := false
			r.each(func(m *Machine) {
				trace := r.rtr.hook()
				if m == r.prod {
					trace = r.ptr.hook()
				}
				m.OnStep = func(pc uint32, in isa.Instruction) {
					trace(pc, in)
					if pc == base && armed && in == ldi111 {
						m.LoadBytes(base, word(ldi222))
					}
				}
				m.LoadBytes(base, p.Bytes())
				m.SetReg(isa.SP, 0x8000)
			})
			run := func(tag string) {
				if drive == "Run" {
					r.runSlices(t, []uint64{1 << 20}, 10)
					return
				}
				for i := 0; ; i++ {
					rr, rp := r.ref.Step(), r.prod.Step()
					r.compare(t, fmt.Sprintf("%s: step %d", tag, i), rr, rp)
					if rr.Reason != StopBudget {
						break
					}
				}
				r.compareRAM(t, tag)
			}

			// Warm-up: the store writes scratch data, and under Run the
			// loop's blocks compile halfway through.
			r.each(func(m *Machine) {
				m.SetEIP(base)
				m.SetReg(isa.R3, 0x9000)
				m.SetReg(isa.R4, kernelIters)
			})
			run("warm-up")
			if st := r.prod.Stats(); drive == "Run" && st.SBHits == 0 {
				t.Fatalf("loop never ran compiled: %+v", st)
			}

			// Three passes: the first runs ldi 111 although the hook has
			// already rewritten it, and its store replaces itself with
			// addi r6, 1, which the other two run instead.
			armed = true
			r.each(func(m *Machine) {
				m.SetEIP(base)
				m.SetReg(isa.R2, 0)
				m.SetReg(isa.R3, base+2*4)
				m.SetReg(isa.R4, 3)
				m.SetReg(isa.R5, binary.LittleEndian.Uint32(word(addi)))
			})
			run("rewrite")
			r.each(func(m *Machine) {
				if got := m.Reg(isa.R2); got != 111+222+222 {
					t.Errorf("FastPath=%v: sum of r1 = %d, want %d", m.FastPath, got, 111+222+222)
				}
				if got := m.Reg(isa.R6); got != 2 {
					t.Errorf("FastPath=%v: the stored addi ran %d times, want 2", m.FastPath, got)
				}
			})

			// The call's push lands on the call itself, which must still
			// jump to its target and return past itself.
			r.each(func(m *Machine) {
				m.SetEIP(base + 7*4)
				m.SetReg(isa.SP, base+8*4)
			})
			run("call")
			r.each(func(m *Machine) {
				if m.EIP() != base+9*4 || m.Reg(isa.SP) != base+8*4 {
					t.Errorf("FastPath=%v: call onto itself ended at eip=%#x sp=%#x", m.FastPath, m.EIP(), m.Reg(isa.SP))
				}
				if got, _ := m.Read32(base + 7*4); got != base+8*4 {
					t.Errorf("FastPath=%v: pushed return address %#x, want %#x", m.FastPath, got, base+8*4)
				}
			})
		})
	}
}

// TestHookRewritesLaterOp pins the other half of the rule: an OnStep
// hook that rewrites a later instruction of the block it is running in
// makes that instruction run its new bytes. At the loop's first op the
// hook rewrites the next ldi r1, 111 to ldi r1, 222 after the loop has
// compiled, and both engines must copy 222 into r2.
func TestHookRewritesLaterOp(t *testing.T) {
	const base = 0x2000
	ldi111 := isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: 111}
	ldi222 := isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: 222}
	var p isa.Program
	p.Emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R4, Imm: -1})   // word 0: the hook fires here
	p.Emit(ldi111)                                                 // word 1: and rewrites this
	p.Emit(isa.Instruction{Op: isa.OpMOV, Rd: isa.R2, Rs: isa.R1}) // word 2
	p.Emit(isa.Instruction{Op: isa.OpCMPI, Rd: isa.R4, Imm: 0})    // word 3
	p.Emit(isa.Instruction{Op: isa.OpBNE, Imm: -5})                // word 4: to word 0
	p.Emit(isa.Instruction{Op: isa.OpHLT})                         // word 5

	r := newPairRig(64 << 10)
	armed := false
	r.each(func(m *Machine) {
		trace := r.rtr.hook()
		if m == r.prod {
			trace = r.ptr.hook()
		}
		m.OnStep = func(pc uint32, in isa.Instruction) {
			trace(pc, in)
			if pc == base && armed {
				m.LoadBytes(base+4, isa.Encode(nil, ldi222))
			}
		}
		m.LoadBytes(base, p.Bytes())
		m.SetEIP(base)
		m.SetReg(isa.R4, kernelIters)
	})
	r.runSlices(t, []uint64{1 << 20}, 10)
	if st := r.prod.Stats(); st.SBHits == 0 {
		t.Fatalf("loop never ran compiled: %+v", st)
	}

	armed = true
	r.each(func(m *Machine) {
		m.SetEIP(base)
		m.SetReg(isa.R4, 1)
	})
	r.runSlices(t, []uint64{1 << 20}, 10)
	r.each(func(m *Machine) {
		if got := m.Reg(isa.R2); got != 222 {
			t.Errorf("FastPath=%v: r2 = %d, want 222", m.FastPath, got)
		}
	})
}

// TestSuperblockDifferentialMPUReconfig compiles a block containing a
// store pre-checked against the decision cache, then reconfigures the
// EA-MPU so the store becomes a violation: the cached verdict must be
// invalidated, the pre-check must bail, and both engines must fault
// identically, violation count included.
func TestSuperblockDifferentialMPUReconfig(t *testing.T) {
	var p isa.Program
	p.Emit(isa.Instruction{Op: isa.OpLDI32, Rd: isa.R2, Imm32: 0x9000})
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R3, Imm: 5})
	p.Emit(isa.Instruction{Op: isa.OpST, Rd: isa.R2, Rs: isa.R3, Imm: 0})
	p.Emit(isa.Instruction{Op: isa.OpHLT})

	r := newPairRig(64 << 10)
	r.trace()
	r.each(func(m *Machine) {
		m.LoadBytes(0x2000, p.Bytes())
		m.SetEIP(0x2000)
		m.SetReg(isa.SP, 0x8000)
	})
	// Unprotected: the store succeeds. Repeat past the compile
	// threshold so the production engine compiles the block and its
	// store runs on a decision-cache hit.
	for pass := 0; pass < sbCompileThreshold+1; pass++ {
		r.runSlices(t, []uint64{1 << 20}, 10)
		r.each(func(m *Machine) { m.SetEIP(0x2000) })
	}
	if st := r.prod.Stats(); st.SBHits == 0 {
		t.Fatalf("block never compiled before reconfig: %+v", st)
	}

	// Claim 0x9000 for code living elsewhere and rerun from the top:
	// the cached "store allowed" verdict must die with the generation.
	// Repeat past the threshold again so the post-reconfig recompile,
	// whose store pre-check must miss and bail, is exercised.
	r.each(func(m *Machine) {
		if err := m.MPU.Install(0, eampu.Rule{
			Code:  eampu.Region{Start: 0x4000, Size: 0x100},
			Data:  eampu.Region{Start: 0x9000, Size: 0x100},
			Perm:  eampu.PermRW,
			Owner: 1,
		}); err != nil {
			t.Fatal(err)
		}
		m.MPU.Enable()
	})
	for pass := 0; pass < sbCompileThreshold+1; pass++ {
		r.each(func(m *Machine) { m.SetEIP(0x2000) })
		r.rtr, r.ptr = stepTrace{}, stepTrace{}
		r.trace()
		r.runSlices(t, []uint64{1 << 20}, 10)
		if r.prod.EIP() != 0x2000+3*4 {
			t.Fatalf("pass %d: expected fault at the store, eip=%#x", pass, r.prod.EIP())
		}
	}
}

// TestSuperblockDifferentialEntryEnforcement jumps into an
// entry-enforcing region both at and past the entry point; compiled
// dispatch must honour the same entry rules as interpreted fetch.
func TestSuperblockDifferentialEntryEnforcement(t *testing.T) {
	var task isa.Program
	task.Emit(isa.Instruction{Op: isa.OpNOP})
	task.Emit(isa.Instruction{Op: isa.OpHLT})
	var caller isa.Program
	caller.Emit(isa.Instruction{Op: isa.OpJR, Rs: isa.R2})

	for _, target := range []uint32{0x4000, 0x4004} {
		r := newPairRig(64 << 10)
		r.trace()
		r.each(func(m *Machine) {
			m.LoadBytes(0x2000, caller.Bytes())
			m.LoadBytes(0x4000, task.Bytes())
			if err := m.MPU.Install(0, eampu.Rule{
				Code:         eampu.Region{Start: 0x4000, Size: 0x100},
				Data:         eampu.Region{Start: 0x4000, Size: 0x100},
				Perm:         eampu.PermR | eampu.PermX,
				EnforceEntry: true,
				Entry:        0x4000,
				Owner:        1,
			}); err != nil {
				t.Fatal(err)
			}
			m.MPU.Enable()
			m.SetReg(isa.R2, target)
			m.SetReg(isa.SP, 0x8000)
		})
		// Repeat past the compile threshold so later passes dispatch
		// compiled blocks (or, for the illegal target, prove that
		// compiled dispatch still refuses mid-region entry).
		for pass := 0; pass < sbCompileThreshold+2; pass++ {
			r.each(func(m *Machine) { m.SetEIP(0x2000) })
			r.runSlices(t, []uint64{1 << 20}, 10)
		}
	}
}

// linked reports whether m's compiled block at from, of the current
// generation, holds a successor link to the block at to.
func linked(m *Machine, from, to uint32) bool {
	if m.sbcache == nil {
		return false
	}
	e := m.sbSlot(from)
	return e.pc == from && e.gen == m.gen && e.sb != nil && e.sb.succ != nil && e.sb.succPC == to
}

// TestSuperblockChainSelfModify: block A is 63 NOPs and a store, so
// the op cap ends it at the store and it falls through into B, to which
// it links. On the hot pass the compiled store rewrites B's first
// instruction: A splits right at B's PC, where the link points, and the
// production engine must run B's new bytes, not the linked block
// compiled from the old ones. The warm passes store to a scratch page
// whose write-cache slot, for that store, is the one B's page maps to,
// so the slot already allows the hot pass's store and it runs compiled
// instead of bailing to the interpreter.
func TestSuperblockChainSelfModify(t *testing.T) {
	const base, b = 0x2000, 0x2000 + 4*sbMaxOps
	const storePC = b - 4
	slot := func(addr uint32) uint32 { return (storePC ^ addr>>8) * hashMul >> (32 - dcacheBits) }
	scratch := uint32(0x9000)
	for slot(scratch) != slot(b) {
		scratch += 0x100
	}
	var p isa.Program
	for i := 0; i < sbMaxOps-1; i++ {
		p.Emit(isa.Instruction{Op: isa.OpNOP})
	}
	p.Emit(isa.Instruction{Op: isa.OpST, Rd: isa.R2, Rs: isa.R3, Imm: 0})
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: 111}) // b: overwritten
	p.Emit(isa.Instruction{Op: isa.OpHLT})

	r := newPairRig(64 << 10)
	r.each(func(m *Machine) {
		m.LoadBytes(base, p.Bytes())
		m.SetReg(isa.SP, 0x8000)
		m.SetReg(isa.R3, patchedWord())
	})
	pass := func(target, want uint32) {
		t.Helper()
		r.each(func(m *Machine) {
			m.SetEIP(base)
			m.SetReg(isa.R2, target)
			m.SetReg(isa.R1, 0)
		})
		r.runSlices(t, []uint64{1 << 20}, 10)
		if got := r.prod.Reg(isa.R1); got != want {
			t.Fatalf("store to %#x: r1 = %d, want %d", target, got, want)
		}
	}
	// Warm passes store to scratch data: A and B compile, A links to B.
	for i := 0; i < sbCompileThreshold+2; i++ {
		pass(scratch, 111)
	}
	if !linked(r.prod, base, b) {
		t.Fatalf("A never linked to B: %+v", r.prod.Stats())
	}
	warm := r.prod.Stats()
	pass(b, 222)
	hot := r.prod.Stats()
	if hot.SBInvalidations == warm.SBInvalidations || hot.DataSpanFills != warm.DataSpanFills {
		t.Fatalf("the store into B did not run compiled:\nwarm %+v\nhot  %+v", warm, hot)
	}
}

// TestSuperblockChainMPURevoke links block A to block B in the next
// 256-byte page, then, between two Run slices, claims B's page for
// other code without execute permission: the second slice must fault
// on the first fetch from B on both engines, and the linked B must not
// run.
func TestSuperblockChainMPURevoke(t *testing.T) {
	const base, b = 0x2000, 0x2100
	prog := assembleAt(t, base, `
.text
a:
    addi r1, 1
    jmp b
.align 256
b:
    addi r2, 1
    cmpi r1, 30000
    bne a
    hlt
`)
	r := newPairRig(64 << 10)
	r.each(func(m *Machine) {
		if err := m.LoadBytes(base, prog); err != nil {
			t.Fatal(err)
		}
		m.SetEIP(base)
		m.SetReg(isa.SP, 0x8000)
	})
	rr, rp := r.ref.Run(8000), r.prod.Run(8000)
	r.compare(t, "warm slice", rr, rp)
	if rr.Reason != StopBudget || !linked(r.prod, base, b) {
		t.Fatalf("warm slice: %v, A linked to B = %v", rr.Reason, linked(r.prod, base, b))
	}
	r.each(func(m *Machine) {
		if err := m.MPU.Install(0, eampu.Rule{
			Code:  eampu.Region{Start: 0x4000, Size: 0x100},
			Data:  eampu.Region{Start: b, Size: 0x100},
			Perm:  eampu.PermRW,
			Owner: 1,
		}); err != nil {
			t.Fatal(err)
		}
		m.MPU.Enable()
	})
	rr, rp = r.ref.Run(1<<20), r.prod.Run(1<<20)
	r.compare(t, "revoked slice", rr, rp)
	if rr.Reason != StopFault || r.prod.EIP() != b {
		t.Fatalf("revoked slice: %v at %#x, want a fault at B", rr.Reason, r.prod.EIP())
	}
	r.compareRAM(t, "after the revoked slice")
}

// TestSuperblockChainExecSpan: block A jumps into an entry-enforcing
// task region, once at its entry point and once past it. A compiled
// block at the target does not share A's exec span, so the chain must
// stop there without linking, and the interpreter must decide the
// entry: the legal entry runs, the illegal one faults on every pass,
// identically on both engines.
func TestSuperblockChainExecSpan(t *testing.T) {
	const base, task = 0x2000, 0x4000
	caller := assembleAt(t, base, `
.text
a:
    cmpi r1, 600
    beq done
    addi r1, 1
    jr r5
done:
    hlt
`)
	body := assembleAt(t, task, `
.text
    nop
    addi r2, 1
    addi r2, 1
    jr r6
`)
	for _, target := range []uint32{task, task + 4} {
		r := newPairRig(64 << 10)
		r.each(func(m *Machine) {
			if err := m.LoadBytes(base, caller); err != nil {
				t.Fatal(err)
			}
			if err := m.LoadBytes(task, body); err != nil {
				t.Fatal(err)
			}
			if err := m.MPU.Install(0, eampu.Rule{
				Code:         eampu.Region{Start: task, Size: 0x100},
				Data:         eampu.Region{Start: task, Size: 0x100},
				Perm:         eampu.PermR | eampu.PermX,
				EnforceEntry: true,
				Entry:        task,
				Owner:        1,
			}); err != nil {
				t.Fatal(err)
			}
			m.MPU.Enable()
			m.SetReg(isa.R6, base)
			m.SetReg(isa.R5, target)
			m.SetReg(isa.SP, 0x8000)
		})
		for pass := 0; pass < sbCompileThreshold+2; pass++ {
			r.each(func(m *Machine) {
				m.SetEIP(base)
				m.SetReg(isa.R1, 0)
			})
			r.runSlices(t, []uint64{1 << 20}, 10)
			if target != task && r.prod.EIP() != target {
				t.Fatalf("target %#x, pass %d: eip=%#x, want the entry fault", target, pass, r.prod.EIP())
			}
		}
		if st := r.prod.Stats(); st.SBHits == 0 {
			t.Fatalf("target %#x: nothing ran compiled: %+v", target, st)
		}
		if linked(r.prod, base+8, target) {
			t.Fatalf("target %#x: the caller's block linked across exec spans", target)
		}
	}
}

// TestSuperblockDifferentialIRQSweep arranges for the timer to assert
// at every possible offset within the compiled kernel blocks (48
// consecutive periods sweep every intra-block instruction boundary, as
// the periods are incommensurate with the loop's cycle pattern) and
// checks interrupt delivery timing is identical on both engines.
// The floor of 14 keeps the guest making progress: each delivery costs
// 13 cycles (exception entry + handler HLT) before the task resumes.
func TestSuperblockDifferentialIRQSweep(t *testing.T) {
	var handler isa.Program
	handler.Emit(isa.Instruction{Op: isa.OpHLT})

	for period := uint32(14); period <= 61; period++ {
		r := newPairRig(64 << 10)
		p := kernelProgram()
		r.each(func(m *Machine) {
			timer := NewTimer(m.Cycles)
			m.MapDevice(PageTimer, timer)
			timer.Write(TimerRegPeriod, period)
			timer.Write(TimerRegCtrl, 1)
			m.LoadBytes(0x2000, p.Bytes())
			m.LoadBytes(0x3000, handler.Bytes())
			if err := m.SetIDTHandler(IRQTimer, 0x3000); err != nil {
				t.Fatal(err)
			}
			m.SetInterruptsEnabled(true)
			m.SetEIP(0x2000 + 4*4)
			m.SetReg(isa.SP, 0x8000)
		})
		for slice := 0; slice < 3000; slice++ {
			rr := r.ref.Run(1 << 20)
			rp := r.prod.Run(1 << 20)
			r.compare(t, fmt.Sprintf("period %d slice %d", period, slice), rr, rp)
			if rr.Reason == StopHalt {
				break
			}
			if rr.Reason != StopIRQ {
				t.Fatalf("period %d: unexpected stop %v", period, rr.Reason)
			}
			r.each(func(m *Machine) {
				h, err := m.EnterInterrupt(IRQTimer)
				if err != nil {
					t.Fatal(err)
				}
				m.SetEIP(h)
				m.AckIRQ(IRQTimer)
				if res := m.Step(); res.Reason != StopHalt { // handler HLT
					t.Fatalf("handler: %v", res.Reason)
				}
				if err := m.ReturnFromInterrupt(); err != nil {
					t.Fatal(err)
				}
			})
			r.compare(t, fmt.Sprintf("period %d post-irq %d", period, slice), RunResult{}, RunResult{})
		}
		if r.prod.Reg(isa.R2) == 0 {
			t.Fatalf("period %d: kernel did not finish", period)
		}
	}
}

// TestSuperblockDifferentialRandomStreams feeds both engines identical
// random word streams through Run slices: illegal instructions, wild
// branches and garbage accesses must stop both identically.
func TestSuperblockDifferentialRandomStreams(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		words := make([]uint32, 256)
		for i := range words {
			words[i] = rng.Uint32()
		}
		budget := []uint64{uint64(rng.Intn(64) + 1)}
		r := newPairRig(64 << 10)
		r.trace()
		r.each(func(m *Machine) {
			for i, w := range words {
				if err := m.RawWrite32(0x2000+uint32(i*4), w); err != nil {
					t.Fatal(err)
				}
			}
			m.SetEIP(0x2000)
			m.SetReg(isa.SP, 0x8000)
		})
		r.runSlices(t, budget, 4000)
	}
}

// TestSuperblockHookedTrace checks the traced (OnStep) executor path
// specifically: with a hook attached superblocks downshift to per-op
// bookkeeping, and the observed (pc, op) stream must equal the
// reference stream instruction for instruction. (The other tests
// attach hooks too; this one asserts the engine still engages.)
func TestSuperblockHookedTrace(t *testing.T) {
	r := newPairRig(64 << 10)
	r.trace()
	p := kernelProgram()
	r.each(func(m *Machine) {
		m.LoadBytes(0x2000, p.Bytes())
		m.SetEIP(0x2000 + 4*4)
		m.SetReg(isa.SP, 0x8000)
	})
	r.runSlices(t, []uint64{1 << 20}, 10)
	if st := r.prod.Stats(); st.SBHits == 0 {
		t.Fatalf("hooked run never dispatched a block: %+v", st)
	}
	if len(r.ptr.pcs) == 0 {
		t.Fatal("hook observed nothing")
	}
}

// TestSuperblockStats pins the engine counters of one plain kernel
// run: 8,196 instructions, the loop's three blocks compiled halfway
// through and then dispatched 768 times, every other dispatch PC
// interpreted. Chaining blocks inside Run must not move any of them.
func TestSuperblockStats(t *testing.T) {
	m := New(64 << 10)
	m.FastPath = true
	p := kernelProgram()
	if err := m.LoadBytes(0x2000, p.Bytes()); err != nil {
		t.Fatal(err)
	}
	m.SetEIP(0x2000 + 4*4)
	m.SetReg(isa.SP, 0x8000)
	res := m.Run(1 << 22)
	if res.Reason != StopHalt {
		t.Fatalf("stop = %v", res.Reason)
	}
	got := m.Stats()
	want := Stats{InsnRetired: 8196, DecodeMisses: 20, ExecSpanFills: 1, DataSpanFills: 8,
		SBCompiles: 3, SBHits: 768, SBFallbacks: 4100}
	if got != want {
		t.Fatalf("stats\n got %+v\nwant %+v", got, want)
	}
}

// TestReferenceNeverCompiles checks that FastPath=false selects the
// reference oracle in Run too: a hot loop far past the compile threshold
// must never compile or dispatch a superblock.
func TestReferenceNeverCompiles(t *testing.T) {
	m := New(64 << 10)
	m.FastPath = false
	p := kernelProgram()
	if err := m.LoadBytes(0x2000, p.Bytes()); err != nil {
		t.Fatal(err)
	}
	m.SetEIP(0x2000 + 4*4)
	m.SetReg(isa.SP, 0x8000)
	if res := m.Run(1 << 22); res.Reason != StopHalt {
		t.Fatalf("stop = %v", res.Reason)
	}
	if st := m.Stats(); st.SBCompiles != 0 || st.SBHits != 0 {
		t.Fatalf("reference engine compiled blocks: %+v", st)
	}
}

// TestICacheGrowth checks that the loader-driven predecode-table sizing
// keeps large programs from alias-thrashing: a straight-line program
// larger than the default table must decode each instruction once (plus
// nothing on the second pass) once GrowICacheForText has sized the
// table, while the fixed default table would miss on every pass. It
// drives Step, which never compiles, so only the predecode table is
// measured.
func TestICacheGrowth(t *testing.T) {
	const words = 2048 // 8 KiB of text: double the default table
	run := func(m *Machine) Stats {
		var p isa.Program
		for i := 0; i < words-1; i++ {
			p.Emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R0, Imm: 1})
		}
		p.Emit(isa.Instruction{Op: isa.OpJR, Rs: isa.R1}) // return to caller loop
		if err := m.LoadBytes(0x2000, p.Bytes()); err != nil {
			t.Fatal(err)
		}
		// Two passes over the whole text.
		m.SetReg(isa.R1, RAMBase) // harmless target; we stop before using it
		for pass := 0; pass < 2; pass++ {
			m.SetEIP(0x2000)
			for i := 0; i < words-1; i++ {
				if res := m.Step(); res.Reason != StopBudget {
					t.Fatalf("pass %d step %d: %v", pass, i, res.Reason)
				}
			}
		}
		return m.Stats()
	}

	grown := New(64 << 10)
	grown.GrowICacheForText(words * 4)
	gs := run(grown)
	// Every instruction decodes once on the first pass; the second pass
	// is fully served from the grown table.
	if gs.DecodeMisses != words-1 {
		t.Fatalf("grown table: %d decode misses, want %d", gs.DecodeMisses, words-1)
	}

	fixed := New(64 << 10)
	fs := run(fixed)
	if fs.DecodeMisses < 2*(words-1)-icacheSizeDefault() {
		t.Fatalf("fixed table unexpectedly large: %d misses", fs.DecodeMisses)
	}
}

func icacheSizeDefault() uint64 { return 1 << icacheBits }

// newKernelMachine stages kernelProgram on a production machine under
// an enforcing EA-MPU rule covering its text, data and stack, as the
// benchmark's kernel workload runs it, and warms it up so every block
// of the loop is compiled.
func newKernelMachine(tb testing.TB) *Machine {
	tb.Helper()
	m := loadKernel(tb, true)
	for i := 0; i < 2; i++ {
		kernelPass(tb, m)
	}
	if st := m.Stats(); st.SBHits == 0 {
		tb.Fatalf("kernel never ran compiled: %+v", st)
	}
	return m
}

// loadKernel returns a machine on the production (fast) or reference
// engine with kernelProgram loaded at 0x2000 under an enforcing EA-MPU.
func loadKernel(tb testing.TB, fast bool) *Machine {
	tb.Helper()
	m := New(64 << 10)
	m.FastPath = fast
	p := kernelProgram()
	if err := m.LoadBytes(0x2000, p.Bytes()); err != nil {
		tb.Fatal(err)
	}
	if err := m.MPU.Install(0, eampu.Rule{
		Code:  eampu.Region{Start: 0x2000, Size: 0x1000},
		Data:  eampu.Region{Start: 0x4000, Size: 0x6000},
		Perm:  eampu.PermRW,
		Owner: 1,
	}); err != nil {
		tb.Fatal(err)
	}
	m.MPU.Enable()
	return m
}

// kernelPass runs kernelProgram once to HLT and returns the
// instructions it retired.
func kernelPass(tb testing.TB, m *Machine) uint64 {
	m.SetReg(isa.SP, 0x8000)
	m.SetEIP(0x2000 + 4*4)
	before := m.InsnRetired()
	if res := m.Run(1 << 30); res.Reason != StopHalt {
		tb.Fatalf("kernel pass stopped with %v (fault %v)", res.Reason, res.Fault)
	}
	return m.InsnRetired() - before
}

// BenchmarkRunCompiled times warmed kernelProgram passes on the
// production engine and reports host ns per guest instruction.
func BenchmarkRunCompiled(b *testing.B) {
	m := newKernelMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	var insns uint64
	for i := 0; i < b.N; i++ {
		insns += kernelPass(b, m)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insns), "ns/insn")
}

// TestCompiledRunAllocs pins a warmed compiled kernel pass at zero
// allocations: compiled blocks run without touching the heap.
func TestCompiledRunAllocs(t *testing.T) {
	m := newKernelMachine(t)
	if n := testing.AllocsPerRun(20, func() { kernelPass(t, m) }); n != 0 {
		t.Fatalf("warmed kernel pass allocated %.1f times, want 0", n)
	}
}

// stepPass runs kernelProgram once to HLT through Step alone, which
// never dispatches a superblock, and returns the instructions it
// retired.
func stepPass(tb testing.TB, m *Machine) uint64 {
	m.SetReg(isa.SP, 0x8000)
	m.SetEIP(0x2000 + 4*4)
	before := m.InsnRetired()
	for {
		res := m.Step()
		if res.Reason == StopHalt {
			return m.InsnRetired() - before
		}
		if res.Reason != StopBudget {
			tb.Fatalf("kernel step stopped with %v (fault %v)", res.Reason, res.Fault)
		}
	}
}

// BenchmarkStep times warmed kernelProgram passes through the
// interpreter (fetch, the EA-MPU checks, decode and execute) on the
// production engine and reports host ns per guest instruction.
func BenchmarkStep(b *testing.B) {
	m := loadKernel(b, true)
	stepPass(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	var insns uint64
	for i := 0; i < b.N; i++ {
		insns += stepPass(b, m)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insns), "ns/insn")
}

// TestStepAllocs pins a warmed kernel pass through Step at zero
// allocations on both engines: neither fetch path copies the decoded
// instruction to the heap.
func TestStepAllocs(t *testing.T) {
	for _, fast := range []bool{true, false} {
		m := loadKernel(t, fast)
		stepPass(t, m)
		if n := testing.AllocsPerRun(20, func() { stepPass(t, m) }); n != 0 {
			t.Fatalf("FastPath=%v: warmed step pass allocated %.1f times, want 0", fast, n)
		}
	}
}

// assembleAt assembles src for loading at base: the text and data
// sections back to back, with every relocation applied for base.
func assembleAt(t *testing.T, base uint32, src string) []byte {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	b := append(append([]byte(nil), im.Text...), im.Data...)
	for _, rel := range im.Relocs {
		w := b[rel.Offset:]
		binary.LittleEndian.PutUint32(w, binary.LittleEndian.Uint32(w)+base)
	}
	return b
}

// compareRAM checks that the two machines' memories are identical.
func (r *pairRig) compareRAM(t *testing.T, tag string) {
	t.Helper()
	if bytes.Equal(r.prod.ram, r.ref.ram) {
		return
	}
	for i := range r.ref.ram {
		if a, b := r.prod.ram[i], r.ref.ram[i]; a != b {
			t.Fatalf("%s: ram[%#x] prod=%#x ref=%#x", tag, RAMBase+uint32(i), a, b)
		}
	}
}

// traceCompiled attaches trace hooks to both machines; the production
// hook also marks, in ran, each opcode it observed from inside a
// compiled block (called from execBlock rather than Step).
func (r *pairRig) traceCompiled(ran *[256]bool) {
	r.ref.OnStep = r.rtr.hook()
	record := r.ptr.hook()
	r.prod.OnStep = func(pc uint32, in isa.Instruction) {
		record(pc, in)
		var caller [1]uintptr
		runtime.Callers(2, caller[:])
		if f, _ := runtime.CallersFrames(caller[:]).Next(); strings.HasSuffix(f.Function, ".execBlock") {
			ran[in.Op] = true
		}
	}
}

// everyOpSource is a hot loop that runs every opcode the compiler
// lowers. x = i*0x9E3779B1 spreads over all 32-bit values, so against
// 0x40000000 each conditional branch goes both ways and the signed and
// unsigned flags disagree whenever x has its top bit set; the shifts
// count i&63, so half of them shift by 32 or more; i&3 drives the
// equality tests; callr/jr form a call that returns through a
// register. Every dispatch PC is visited at least a quarter of 2,048
// iterations, so all of them compile and then run compiled.
const everyOpSource = `
.text
entry:
    ldi r1, 0
    ldi32 r6, buf
loop:
    mov r0, r1
    ldi32 r2, 0x9E3779B1
    mul r0, r2
    lui r2, 0x4000
    cmp r0, r2
    bltu l1
    addi r3, 1
l1: cmp r0, r2
    bgeu l2
    addi r3, 2
l2: cmp r0, r2
    blt l3
    addi r3, 4
l3: cmp r0, r2
    bge l4
    addi r3, 8
l4: mov r5, r1
    ldi r4, 63
    and r5, r4
    mov r4, r0
    shl r4, r5
    add r3, r4
    mov r4, r0
    shr r4, r5
    xor r3, r4
    ldi r4, 3
    and r4, r1
    ldi r5, 0
    cmp r4, r5
    beq l5
    sub r3, r1
l5: cmpi r4, 2
    bne l6
    or r3, r4
l6: nop
    st [r6+0], r3
    ld r4, [r6+0]
    stb [r6+4], r1
    ldb r5, [r6+4]
    add r3, r5
    push r4
    call leaf
    pop r4
    ldi32 r4, viareg
    callr r4
    jmp l7
    hlt
l7: addi r1, 1
    cmpi r1, 2048
    bne loop
    hlt
leaf:
    addi r3, 5
    ret
viareg:
    pop r5
    jr r5
.data
buf:
    .space 8
`

// refusalGuard is a data region an EA-MPU rule claims for other code,
// so every access the test programs make to it is denied.
const refusalGuard = 0xA000

// refusalLoops are the memory-op kinds with, for each, the loop body
// around the op (mem) and the register that walks its address, from
// start, one access per iteration into refusalGuard after refusalIters
// iterations. jmp loop ends each pass, so the op is op 0 of its block;
// with a leading addi it sits mid-block. stats holds the production
// engine's SBHits, SBBails and SBFallbacks at the end of the run, op 0
// first, then mid-block: the counts one block dispatch per Run
// iteration gives, traced or not.
var refusalLoops = []struct {
	name      string
	mem, tail string
	walk      isa.Reg
	start     uint32
	stats     [2][3]uint64
}{
	{"ld", "ld r5, [r3+0]", "addi r3, 4\n addi r2, 1\n jmp loop", isa.R3, refusalGuard - 4*refusalIters,
		[2][3]uint64{{301, 5, 1024}, {306, 10, 1280}}},
	{"ldb", "ldb r5, [r3+0]", "addi r3, 1\n addi r2, 1\n jmp loop", isa.R3, refusalGuard - refusalIters,
		[2][3]uint64{{298, 2, 1024}, {300, 4, 1280}}},
	{"st", "st [r3+0], r2", "addi r3, 4\n addi r2, 1\n jmp loop", isa.R3, refusalGuard - 4*refusalIters,
		[2][3]uint64{{301, 5, 1024}, {306, 10, 1280}}},
	{"stb", "stb [r3+0], r2", "addi r3, 1\n addi r2, 1\n jmp loop", isa.R3, refusalGuard - refusalIters,
		[2][3]uint64{{298, 2, 1024}, {300, 4, 1280}}},
	{"push", "push r2", "addi r2, 1\n jmp loop", isa.SP, refusalGuard + 0x100 + 4*refusalIters,
		[2][3]uint64{{301, 5, 768}, {306, 10, 1024}}},
	{"pop", "pop r5", "addi r2, 1\n jmp loop", isa.SP, refusalGuard - 4*refusalIters,
		[2][3]uint64{{301, 5, 768}, {306, 10, 1024}}},
	{"call", "call fn", "jmp loop", isa.SP, refusalGuard + 0x100 + 4*refusalIters,
		[2][3]uint64{{593, 5, 512}, {598, 10, 768}}},
	{"callr", "callr r4", "jmp loop", isa.SP, refusalGuard + 0x100 + 4*refusalIters,
		[2][3]uint64{{593, 5, 512}, {598, 10, 768}}},
	{"ret", "ret", "", isa.SP, refusalGuard - 4*refusalIters,
		[2][3]uint64{{297, 5, 256}, {302, 10, 512}}},
}

// refusalIters is how many iterations each refusal loop runs before its
// access reaches refusalGuard: past the warm-up gate, so the refused op
// runs compiled.
const refusalIters = 2*sbCompileThreshold + 40

// TestSuperblockDifferentialEveryOp runs every opcode the compiler
// lowers inside compiled blocks, in lockstep with the reference engine,
// traced and untraced. everyOpSource covers the ALU, branch and call
// ops; refusalLoops make the compiled pre-check refuse each memory-op
// kind on a late iteration, at op 0 and mid-block, where the
// interpreter then denies the access. Registers, flags, cycles, traces
// and all of RAM must match after every slice, and in the traced runs
// every lowered opcode must have been observed from a compiled block.
func TestSuperblockDifferentialEveryOp(t *testing.T) {
	var ran [256]bool
	everyOp := assembleAt(t, 0x2000, everyOpSource)
	for _, traced := range []bool{false, true} {
		for _, budgets := range [][]uint64{{1 << 20}, {7, 100, 1000}} {
			t.Run(fmt.Sprintf("every-op/traced=%v/budgets=%v", traced, budgets), func(t *testing.T) {
				r := newPairRig(64 << 10)
				if traced {
					r.traceCompiled(&ran)
				}
				r.each(func(m *Machine) {
					if err := m.LoadBytes(0x2000, everyOp); err != nil {
						t.Fatal(err)
					}
					m.SetEIP(0x2000)
					m.SetReg(isa.SP, 0x8000)
				})
				r.runSlices(t, budgets, 1<<20)
				if r.ref.Reg(isa.R1) != 2048 {
					t.Fatalf("loop did not finish: eip=%#x r1=%d", r.ref.EIP(), r.ref.Reg(isa.R1))
				}
			})
		}
		for _, k := range refusalLoops {
			for at, mid := range []bool{false, true} {
				t.Run(fmt.Sprintf("refuse-%s/mid=%v/traced=%v", k.name, mid, traced), func(t *testing.T) {
					head := ""
					if mid {
						head = "addi r2, 1"
					}
					src := fmt.Sprintf(".text\nloop:\n %s\n %s\n %s\nfn:\n jmp loop\n", head, k.mem, k.tail)
					prog := assembleAt(t, 0x2000, src)
					fn := 0x2000 + uint32(len(prog)) - 4
					r := newPairRig(64 << 10)
					if traced {
						r.traceCompiled(&ran)
					}
					r.each(func(m *Machine) {
						if err := m.LoadBytes(0x2000, prog); err != nil {
							t.Fatal(err)
						}
						// Below the guard, a stack of return addresses
						// back to the loop, for ret to walk.
						for a := uint32(refusalGuard - 4*refusalIters); a < refusalGuard; a += 4 {
							if err := m.RawWrite32(a, 0x2000); err != nil {
								t.Fatal(err)
							}
						}
						m.SetReg(k.walk, k.start)
						m.SetReg(isa.R4, fn)
						if err := m.MPU.Install(0, eampu.Rule{
							Code:  eampu.Region{Start: 0x4000, Size: 0x100},
							Data:  eampu.Region{Start: refusalGuard, Size: 0x100},
							Perm:  eampu.PermRW,
							Owner: 1,
						}); err != nil {
							t.Fatal(err)
						}
						m.MPU.Enable()
						m.SetEIP(0x2000)
					})
					r.runSlices(t, []uint64{1 << 20}, 100)
					if v := r.ref.MPU.Violations(); v != 1 {
						t.Fatalf("%d violations, want the one refused access", v)
					}
					st := r.prod.Stats()
					if got := [3]uint64{st.SBHits, st.SBBails, st.SBFallbacks}; got != k.stats[at] {
						t.Fatalf("SBHits, SBBails, SBFallbacks = %v, want %v", got, k.stats[at])
					}
				})
			}
		}
	}
	for op := isa.Op(0); op.Valid(); op++ {
		lowered := op != isa.OpHLT && op != isa.OpSVC && op != isa.OpRDCYC
		if lowered != ran[op] {
			t.Errorf("%v: lowered=%v but ran compiled=%v", op, lowered, ran[op])
		}
	}
}
