package trusted

import (
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/rtos"
)

// IntMux is the trusted interrupt multiplexer. When a task is
// interrupted, the hardware exception engine saves EIP and EFLAGS; the
// Int Mux then (1) stores the remaining context to the task's own
// stack, (2) wipes the CPU registers so the untrusted handler learns
// nothing about the task's state, and (3) branches to the handler
// selected by the EA-MPU-protected IDT — the three columns of Table 2.
//
// Resuming runs the inverse path through the task's entry routine: a
// branch to the entry point (where the EA-MPU entry check fires), the
// restart-vs-message dispatch on the info register, and the context
// restore — Table 3.
//
// The Int Mux implements rtos.InterruptPath, replacing the baseline
// handler when the platform boots in the TyTAN configuration.
type IntMux struct {
	m *machine.Machine
	// stats for the evaluation harness
	saves    uint64
	restores uint64
}

// NewIntMux creates the multiplexer.
func NewIntMux(m *machine.Machine) *IntMux { return &IntMux{m: m} }

// Save implements rtos.InterruptPath. All memory traffic happens inside
// the Int Mux's protection context: its boot-time grant covers task
// stacks, while the untrusted handler that runs afterwards sees only
// wiped registers.
func (x *IntMux) Save(k *rtos.Kernel, t *rtos.TCB) error {
	x.saves++
	var err error
	x.m.WithExecContext(IntMuxBase, func() {
		err = rtos.SaveFrame(k, t)
	})
	if err != nil {
		return err
	}
	x.m.Charge(machine.CostStoreContext)
	x.m.WipeRegisters()
	x.m.Charge(machine.CostWipeRegisters)
	// Branch to the handler from the protected IDT. The handler address
	// is read by hardware; the branch cost covers the dispatch.
	x.m.Charge(machine.CostSecureBranch)
	return nil
}

// Restore implements rtos.InterruptPath: branch into the task's entry
// routine, deliver the restart/message indication in R0, and restore
// the banked context.
func (x *IntMux) Restore(k *rtos.Kernel, t *rtos.TCB) error {
	x.restores++
	// Branch to the dedicated entry point; the EA-MPU entry-point check
	// is part of this edge.
	if t.Kind == rtos.KindSecure {
		if err := x.m.CheckExecEntry(IntMuxBase, t.EntryAddr); err != nil {
			return err
		}
	}
	x.m.Charge(machine.CostRestoreBranch)
	// Entry-routine dispatch: the task checks R0 to see why it was
	// entered (§4 "(Re)starting secure tasks").
	x.m.Charge(machine.CostEntryDispatch)
	info := t.EntryInfo
	if info == rtos.EntryMessage {
		// Receiver-side message processing by the entry routine (§6:
		// 116 cycles).
		x.m.Charge(machine.CostIPCEntryRoutine)
	}
	var err error
	x.m.WithExecContext(IntMuxBase, func() {
		err = rtos.RestoreFrame(k, t)
	})
	if err != nil {
		return err
	}
	x.m.Charge(machine.CostRestoreContext)
	if info == rtos.EntryMessage {
		// The entry routine reports the delivery in R0 — this is the
		// return value of the receiver's receive call. A plain resume
		// keeps the R0 from the restored frame.
		x.m.SetReg(isa.R0, info)
	}
	t.EntryInfo = rtos.EntryResumed
	return nil
}
