package rtos

import (
	"repro/internal/isa"
	"repro/internal/machine"
)

// SaveFrame performs the mechanical part of a context save shared by
// the baseline handler and the trusted Int Mux: write the whole frame
// (r0..r7, EIP, EFLAGS) just below SP as one checked word transfer,
// highest address first like a push sequence, and record the frame
// base in t.SavedSP. The kernel's bankContext has already checked that
// the span lies inside the task's own stack.
//
// The transfer goes through the *checked* bus in the current execution
// context: under TyTAN the Int Mux runs this inside its own protection
// context (whose boot-time grant covers task stacks), and any attempt
// by untrusted code to bank a secure task's context faults — the
// security property of §4 "Interrupting secure tasks".
func SaveFrame(k *Kernel, t *TCB) error {
	m := k.M
	ctx := m.SaveContext()
	var frame [contextFrameWords]uint32
	copy(frame[:], ctx.Regs[:])
	frame[isa.NumRegs], frame[isa.NumRegs+1] = ctx.EIP, ctx.EFLAGS
	sp := ctx.Regs[spReg] - contextFrameBytes
	if err := m.WriteWords(sp, frame[:]); err != nil {
		return err
	}
	m.SetReg(spReg, sp)
	t.SavedSP = sp
	return nil
}

// RestoreFrame is the mechanical inverse of SaveFrame: read the frame
// at t.SavedSP through the checked bus, load it into the CPU, unwind SP
// past the frame and re-enable interrupts.
func RestoreFrame(k *Kernel, t *TCB) error {
	m := k.M
	var frame [contextFrameWords]uint32
	if err := m.ReadWords(t.SavedSP, frame[:]); err != nil {
		return err
	}
	ctx := machine.Context{EIP: frame[isa.NumRegs], EFLAGS: frame[isa.NumRegs+1]}
	copy(ctx.Regs[:], frame[:])
	// The restored SP is derived from the frame base, not from the
	// saved r7, so a corrupted frame cannot desynchronize the unwind.
	ctx.Regs[spReg] = t.SavedSP + contextFrameBytes
	m.LoadContext(ctx)
	m.SetInterruptsEnabled(true)
	return nil
}

// BaselinePath is the unmodified-FreeRTOS interrupt path: the plain
// interrupt handler saves the interrupted task's registers to the
// task's stack and later restores them. No register wiping, no entry
// routine — the baseline columns of Tables 2 and 3.
type BaselinePath struct{}

// Save implements InterruptPath (cost: Table 2 baseline, 38 cycles).
func (BaselinePath) Save(k *Kernel, t *TCB) error {
	k.M.Charge(machine.CostStoreContext)
	return SaveFrame(k, t)
}

// Restore implements InterruptPath (cost: Table 3 baseline, 254
// cycles).
func (BaselinePath) Restore(k *Kernel, t *TCB) error {
	k.M.Charge(machine.CostRestoreContext)
	return RestoreFrame(k, t)
}
