package machine

import (
	"fmt"
	"math/rand"
	"testing"

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
// budgets (cycled) until a non-budget, non-IRQ stop or maxSlices.
func (r *pairRig) runSlices(t *testing.T, budgets []uint64, maxSlices int) {
	t.Helper()
	for i := 0; i < maxSlices; i++ {
		budget := budgets[i%len(budgets)]
		rr := r.ref.Run(budget)
		rp := r.prod.Run(budget)
		r.compare(t, fmt.Sprintf("slice %d (budget %d)", i, budget), rr, rp)
		if rr.Reason != StopBudget && rr.Reason != StopIRQ {
			return
		}
	}
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

// TestSuperblockStats sanity-checks the engine counters on a plain run.
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
	st := m.Stats()
	if st.SBCompiles == 0 || st.SBHits == 0 {
		t.Fatalf("engine never engaged: %+v", st)
	}
	if st.SBHits < st.SBCompiles {
		t.Fatalf("hits (%d) < compiles (%d): cache not reused", st.SBHits, st.SBCompiles)
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
