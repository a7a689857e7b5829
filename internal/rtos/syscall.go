package rtos

import (
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/trace"
)

// Kernel-handled SVC numbers. The trusted layer registers additional
// services (IPC, attestation, storage) through the SyscallHandler hook;
// numbers ≥ SVCUserBase are reserved for it.
const (
	SVCYield   = 0 // give up the CPU to equal-priority peers
	SVCExit    = 1 // terminate the calling task
	SVCDelay   = 2 // r0 = cycles to sleep
	SVCPutChar = 5 // r1 = byte to transmit on the UART
	SVCGetTime = 6 // returns cycle counter in r0 (low) / r1 (high)

	// SVCUserBase is the first SVC number delegated to the trusted
	// layer's SyscallHandler.
	SVCUserBase = 16
)

// handleSyscall services an SVC trap from the current ISA task. The
// task's context is live; handlers read arguments straight from the
// registers, exactly like the register-based calling convention of the
// paper's IPC.
func (k *Kernel) handleSyscall(t *TCB, svc uint16) {
	if k.M.Obs != nil {
		k.M.Emit(trace.SubKernel, trace.KindSyscall, t.Name,
			trace.Num("id", uint64(t.ID)), trace.Num("svc", uint64(svc)))
	}
	switch svc {
	case SVCYield:
		k.YieldCurrent()
	case SVCExit:
		k.current = nil
		k.ctxLive = false
		k.removeTaskWith(t, ExitReason{Cause: ExitSelf, PC: k.M.EIP()})
	case SVCDelay:
		k.DelayCurrent(uint64(k.M.Reg(isa.R0)))
	case SVCPutChar:
		if d, ok := k.Device(machine.PageUART); ok {
			d.Write(machine.UARTRegTx, k.M.Reg(isa.R1))
		}
		k.M.Charge(4)
	case SVCGetTime:
		c := k.M.Cycles()
		k.M.SetReg(isa.R0, uint32(c))
		k.M.SetReg(isa.R1, uint32(c>>32))
		k.M.Charge(2)
	default:
		if k.Syscalls != nil && k.Syscalls.HandleSyscall(k, t, svc) {
			return
		}
		// Unknown service: the task is misbehaving; kill it. Isolation
		// means this cannot harm anyone else.
		k.current = nil
		k.ctxLive = false
		k.removeTaskWith(t, ExitReason{Cause: ExitBadSyscall, PC: k.M.EIP(), SVC: svc})
	}
}

// Device is a convenience accessor for a mapped device page.
func (k *Kernel) Device(page uint32) (machine.Device, bool) {
	return k.M.Device(page)
}
