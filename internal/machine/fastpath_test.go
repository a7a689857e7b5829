package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/eampu"
	"repro/internal/isa"
)

// Differential tests for the interpreter fast path: a fast-path machine
// and a reference machine execute the same program in lockstep, and
// after every single step the complete architectural state — cycles,
// registers, EIP, EFLAGS, stop reason, fault text, trace events — must
// be bit-for-bit identical. Any divergence is a soundness bug in the
// decoded-instruction cache or the EA-MPU decision cache.

// stepTrace captures the OnStep stream of one machine.
type stepTrace struct {
	pcs []uint32
	ops []isa.Op
}

func (t *stepTrace) hook() func(pc uint32, in isa.Instruction) {
	return func(pc uint32, in isa.Instruction) {
		t.pcs = append(t.pcs, pc)
		t.ops = append(t.ops, in.Op)
	}
}

// diffRig holds a fast/reference machine pair fed identical inputs.
type diffRig struct {
	fast, ref   *Machine
	ftr, rtr    stepTrace
	stepsTotal  int
	divergences []string
}

func newDiffRig(ramSize uint32) *diffRig {
	r := &diffRig{fast: New(ramSize), ref: New(ramSize)}
	r.fast.FastPath = true
	r.ref.FastPath = false
	r.fast.OnStep = r.ftr.hook()
	r.ref.OnStep = r.rtr.hook()
	return r
}

// both applies the same mutation to both machines.
func (r *diffRig) both(f func(m *Machine)) {
	f(r.fast)
	f(r.ref)
}

// compare checks full architectural equality after a step.
func (r *diffRig) compare(t *testing.T, tag string, rf, rr RunResult) {
	t.Helper()
	if rf.Reason != rr.Reason {
		t.Fatalf("%s: stop reason fast=%v ref=%v", tag, rf.Reason, rr.Reason)
	}
	if rf.SVC != rr.SVC {
		t.Fatalf("%s: svc fast=%d ref=%d", tag, rf.SVC, rr.SVC)
	}
	switch {
	case (rf.Fault == nil) != (rr.Fault == nil):
		t.Fatalf("%s: fault fast=%v ref=%v", tag, rf.Fault, rr.Fault)
	case rf.Fault != nil && rf.Fault.Error() != rr.Fault.Error():
		t.Fatalf("%s: fault text fast=%q ref=%q", tag, rf.Fault, rr.Fault)
	}
	if a, b := r.fast.Cycles(), r.ref.Cycles(); a != b {
		t.Fatalf("%s: cycles fast=%d ref=%d", tag, a, b)
	}
	if a, b := r.fast.EIP(), r.ref.EIP(); a != b {
		t.Fatalf("%s: eip fast=%#x ref=%#x", tag, a, b)
	}
	if a, b := r.fast.EFLAGS(), r.ref.EFLAGS(); a != b {
		t.Fatalf("%s: eflags fast=%#x ref=%#x", tag, a, b)
	}
	for i := 0; i < int(isa.NumRegs); i++ {
		if a, b := r.fast.Reg(isa.Reg(i)), r.ref.Reg(isa.Reg(i)); a != b {
			t.Fatalf("%s: r%d fast=%#x ref=%#x", tag, i, a, b)
		}
	}
	if len(r.ftr.pcs) != len(r.rtr.pcs) {
		t.Fatalf("%s: trace length fast=%d ref=%d", tag, len(r.ftr.pcs), len(r.rtr.pcs))
	}
	for i := range r.ftr.pcs {
		if r.ftr.pcs[i] != r.rtr.pcs[i] || r.ftr.ops[i] != r.rtr.ops[i] {
			t.Fatalf("%s: trace[%d] fast=(%#x,%v) ref=(%#x,%v)",
				tag, i, r.ftr.pcs[i], r.ftr.ops[i], r.rtr.pcs[i], r.rtr.ops[i])
		}
	}
}

// lockstep runs both machines one Step at a time for at most maxSteps,
// comparing after every step, until both stop for a non-budget reason.
func (r *diffRig) lockstep(t *testing.T, maxSteps int) {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		rf := r.fast.Step()
		rr := r.ref.Step()
		r.stepsTotal++
		r.compare(t, fmt.Sprintf("step %d", i), rf, rr)
		if rf.Reason != StopBudget {
			return
		}
	}
}

func TestFastPathDifferentialALU(t *testing.T) {
	var p isa.Program
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R0, Imm: 7})
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: 9})
	p.Emit(isa.Instruction{Op: isa.OpADD, Rd: isa.R0, Rs: isa.R1})
	p.Emit(isa.Instruction{Op: isa.OpCMPI, Rd: isa.R0, Imm: 16})
	p.Emit(isa.Instruction{Op: isa.OpBEQ, Imm: 1})
	p.Emit(isa.Instruction{Op: isa.OpHLT}) // skipped when equal
	p.Emit(isa.Instruction{Op: isa.OpMUL, Rd: isa.R0, Rs: isa.R1})
	p.Emit(isa.Instruction{Op: isa.OpHLT})

	r := newDiffRig(64 << 10)
	r.both(func(m *Machine) {
		m.LoadBytes(0x2000, p.Bytes())
		m.SetEIP(0x2000)
		m.SetReg(isa.SP, 0x8000)
	})
	r.lockstep(t, 100)
}

// TestFastPathDifferentialLoop re-executes the same code many times so
// the second and later iterations are served from the caches, then
// checks the cached iterations stay identical to the reference.
func TestFastPathDifferentialLoop(t *testing.T) {
	var p isa.Program
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R0, Imm: 50}) // counter
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: 0})  // sum
	// loop: sum += counter; counter -= 1; bne loop
	p.Emit(isa.Instruction{Op: isa.OpADD, Rd: isa.R1, Rs: isa.R0})
	p.Emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R0, Imm: -1})
	p.Emit(isa.Instruction{Op: isa.OpCMPI, Rd: isa.R0, Imm: 0})
	p.Emit(isa.Instruction{Op: isa.OpBNE, Imm: -4})
	p.Emit(isa.Instruction{Op: isa.OpHLT})

	r := newDiffRig(64 << 10)
	r.both(func(m *Machine) {
		m.LoadBytes(0x2000, p.Bytes())
		m.SetEIP(0x2000)
		m.SetReg(isa.SP, 0x8000)
	})
	r.lockstep(t, 1000)
	if r.fast.Reg(isa.R1) != 50*51/2 {
		t.Fatalf("loop sum = %d", r.fast.Reg(isa.R1))
	}
}

// TestFastPathDifferentialSelfModify overwrites an instruction that is
// already in the decode cache and checks the new bytes take effect on
// the very next fetch, exactly like the reference path.
func TestFastPathDifferentialSelfModify(t *testing.T) {
	const target = 0x2000 + 6*4 // word 6: the LDI R1 below
	var p isa.Program
	p.Emit(isa.Instruction{Op: isa.OpLDI32, Rd: isa.R2, Imm32: target}) // words 0-1
	p.Emit(isa.Instruction{Op: isa.OpLDI32, Rd: isa.R3, Imm32: patchedWord()})
	p.Emit(isa.Instruction{Op: isa.OpST, Rd: isa.R2, Rs: isa.R3, Imm: 0}) // word 4
	p.Emit(isa.Instruction{Op: isa.OpNOP})                                // word 5
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: 111})          // word 6: patched
	p.Emit(isa.Instruction{Op: isa.OpHLT})

	r := newDiffRig(64 << 10)
	r.both(func(m *Machine) {
		m.LoadBytes(0x2000, p.Bytes())
		m.SetReg(isa.SP, 0x8000)
	})
	// First pass: execute the target directly so it lands in the decode
	// cache as LDI 111.
	r.both(func(m *Machine) { m.SetEIP(target) })
	r.lockstep(t, 10)
	if r.fast.Reg(isa.R1) != 111 {
		t.Fatalf("first pass r1 = %d, want 111", r.fast.Reg(isa.R1))
	}
	// Second pass from the top: the store overwrites the cached LDI 111
	// with LDI 222, which must be what executes when control reaches it.
	r.both(func(m *Machine) { m.SetEIP(0x2000) })
	r.ftr, r.rtr = stepTrace{}, stepTrace{}
	r.lockstep(t, 100)
	if r.fast.Reg(isa.R1) != 222 {
		t.Fatalf("patched r1 = %d, want 222", r.fast.Reg(isa.R1))
	}
}

// patchedWord encodes "LDI R1, 222" as the raw word the self-modifying
// test stores over the original instruction.
func patchedWord() uint32 {
	var p isa.Program
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: 222})
	b := p.Bytes()
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// TestFastPathDifferentialMPUReconfig runs code, reconfigures the MPU
// mid-run so a previously allowed store becomes a violation, and checks
// fast and reference paths fault identically (same PC, same text).
func TestFastPathDifferentialMPUReconfig(t *testing.T) {
	var p isa.Program
	p.Emit(isa.Instruction{Op: isa.OpLDI32, Rd: isa.R2, Imm32: 0x9000})
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R3, Imm: 5})
	p.Emit(isa.Instruction{Op: isa.OpST, Rd: isa.R2, Rs: isa.R3, Imm: 0})
	p.Emit(isa.Instruction{Op: isa.OpHLT})

	r := newDiffRig(64 << 10)
	r.both(func(m *Machine) {
		m.LoadBytes(0x2000, p.Bytes())
		m.SetEIP(0x2000)
		m.SetReg(isa.SP, 0x8000)
	})
	// Unprotected run: the store succeeds on both.
	r.lockstep(t, 100)

	// Now claim 0x9000 for code living elsewhere (0x4000) and rerun:
	// the caller at 0x2000 no longer matches any rule covering 0x9000,
	// so its previously cached "store allowed" verdict must be dropped.
	r.both(func(m *Machine) {
		m.MPU.Install(0, eampu.Rule{
			Code:  eampu.Region{Start: 0x4000, Size: 0x100},
			Data:  eampu.Region{Start: 0x9000, Size: 0x100},
			Perm:  eampu.PermRW,
			Owner: 1,
		})
		m.MPU.Enable()
		m.SetEIP(0x2000)
	})
	r.ftr, r.rtr = stepTrace{}, stepTrace{}
	r.lockstep(t, 100)
	if r.fast.EIP() != 0x2000+3*4 {
		t.Fatalf("expected fault at the store, eip=%#x", r.fast.EIP())
	}
}

// TestFastPathDifferentialEntryEnforcement checks entry-point faults:
// jumping into the middle of an entry-enforcing region must fault
// identically on both paths, while entering at the entry point works.
func TestFastPathDifferentialEntryEnforcement(t *testing.T) {
	// Region at 0x4000 with entry at 0x4000: NOP; HLT.
	var task isa.Program
	task.Emit(isa.Instruction{Op: isa.OpNOP})
	task.Emit(isa.Instruction{Op: isa.OpHLT})
	// Caller at 0x2000 jumps to R2.
	var caller isa.Program
	caller.Emit(isa.Instruction{Op: isa.OpJR, Rs: isa.R2})

	for _, target := range []uint32{0x4000, 0x4004} {
		r := newDiffRig(64 << 10)
		r.both(func(m *Machine) {
			m.LoadBytes(0x2000, caller.Bytes())
			m.LoadBytes(0x4000, task.Bytes())
			m.MPU.Install(0, eampu.Rule{
				Code:         eampu.Region{Start: 0x4000, Size: 0x100},
				Data:         eampu.Region{Start: 0x4000, Size: 0x100},
				Perm:         eampu.PermR | eampu.PermX,
				EnforceEntry: true,
				Entry:        0x4000,
				Owner:        1,
			})
			m.MPU.Enable()
			m.SetEIP(0x2000)
			m.SetReg(isa.R2, target)
			m.SetReg(isa.SP, 0x8000)
		})
		r.lockstep(t, 100)
	}
}

// TestFastPathDifferentialRandomStreams feeds both paths identical
// random word streams (the fuzz corpus construction) and requires
// identical outcomes, including on illegal instructions and wild
// branches off the end of RAM.
func TestFastPathDifferentialRandomStreams(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		words := make([]uint32, 256)
		for i := range words {
			words[i] = rng.Uint32()
		}
		r := newDiffRig(64 << 10)
		r.both(func(m *Machine) {
			for i, w := range words {
				m.RawWrite32(0x2000+uint32(i*4), w)
			}
			m.SetEIP(0x2000)
			m.SetReg(isa.SP, 0x8000)
		})
		r.lockstep(t, 2000)
	}
}

// TestFastPathDifferentialFetchNearRAMEnd decodes right at the end of
// memory, where the 8-byte window clamps: truncation faults must be
// identical (this covers the LDI32-at-end-of-RAM corner).
func TestFastPathDifferentialFetchNearRAMEnd(t *testing.T) {
	const ram = 64 << 10
	end := RAMBase + uint32(ram)
	var ldi32 isa.Program
	ldi32.Emit(isa.Instruction{Op: isa.OpLDI32, Rd: isa.R0, Imm32: 1})
	word := ldi32.Bytes()[:4]

	for _, pc := range []uint32{end - 4, end - 8, end, end + 4, 0x10} {
		r := newDiffRig(ram)
		r.both(func(m *Machine) {
			if pc >= RAMBase && pc+4 <= end {
				m.LoadBytes(pc, word) // LDI32 header with its tail clamped off
			}
			m.SetEIP(pc)
		})
		r.lockstep(t, 4)
	}
}

// TestFastPathDifferentialInterrupts exercises the caches across
// interrupt entry/exit: a timer preempts a loop, the handler runs from
// a different code page, and every step of both paths must agree.
func TestFastPathDifferentialInterrupts(t *testing.T) {
	// Handler at 0x3000: acknowledge by halting (the test harness acks).
	var handler isa.Program
	handler.Emit(isa.Instruction{Op: isa.OpHLT})
	// Main loop at 0x2000: spin.
	var loop isa.Program
	loop.Emit(isa.Instruction{Op: isa.OpNOP})
	loop.Emit(isa.Instruction{Op: isa.OpJMP, Imm: -2})

	r := newDiffRig(64 << 10)
	r.both(func(m *Machine) {
		timer := NewTimer(m.Cycles)
		m.MapDevice(PageTimer, timer)
		timer.Write(TimerRegPeriod, 97)
		timer.Write(TimerRegCtrl, 1)
		m.LoadBytes(0x2000, loop.Bytes())
		m.LoadBytes(0x3000, handler.Bytes())
		m.SetIDTHandler(IRQTimer, 0x3000)
		m.SetInterruptsEnabled(true)
		m.SetEIP(0x2000)
		m.SetReg(isa.SP, 0x8000)
	})
	for round := 0; round < 20; round++ {
		// Run until the interrupt preempts both machines.
		for i := 0; i < 500; i++ {
			rf := r.fast.Step()
			rr := r.ref.Step()
			r.compare(t, fmt.Sprintf("round %d step %d", round, i), rf, rr)
		}
		r.both(func(m *Machine) {
			if m.InterruptDeliverable() {
				if _, err := m.EnterInterrupt(IRQTimer); err != nil {
					t.Fatal(err)
				}
				m.AckIRQ(IRQTimer)
				m.Step() // HLT in the handler
				if err := m.ReturnFromInterrupt(); err != nil {
					t.Fatal(err)
				}
			}
		})
		r.compare(t, fmt.Sprintf("round %d post-irq", round), RunResult{}, RunResult{})
	}
}
