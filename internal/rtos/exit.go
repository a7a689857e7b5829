package rtos

import (
	"errors"
	"fmt"

	"repro/internal/eampu"
	"repro/internal/machine"
)

// Structured task-exit accounting. The paper's isolation argument (§1,
// §5) is that a compromised or crashed task cannot affect the rest of
// the system and that the platform can *recover* by reloading tasks.
// Recovery needs a cause: instead of silently discarding a faulted
// task, the kernel records why every task left the system and exposes
// the record to the trusted supervisor and to diagnostics.

// ExitCause classifies why a task left the system.
type ExitCause int

// Exit causes.
const (
	ExitNone ExitCause = iota
	// ExitHalt: the task executed HLT (ran to completion).
	ExitHalt
	// ExitSelf: the task called the exit syscall.
	ExitSelf
	// ExitFault: a CPU fault — EA-MPU violation, illegal instruction,
	// misaligned or unmapped access.
	ExitFault
	// ExitBadSyscall: the task raised an SVC number nobody handles.
	ExitBadSyscall
	// ExitStackOverflow: the context frame would not fit inside the
	// task's own stack, so it was not banked (FaultAddr is the frame's
	// base, SP-40).
	ExitStackOverflow
	// ExitRestoreFault: the task's saved context could not be restored.
	ExitRestoreFault
	// ExitKilled: removed administratively (Unload).
	ExitKilled
	// ExitDone: a native service task reported completion.
	ExitDone
)

// String names the cause.
func (c ExitCause) String() string {
	switch c {
	case ExitNone:
		return "none"
	case ExitHalt:
		return "halt"
	case ExitSelf:
		return "exit"
	case ExitFault:
		return "fault"
	case ExitBadSyscall:
		return "bad-syscall"
	case ExitStackOverflow:
		return "stack-overflow"
	case ExitRestoreFault:
		return "restore-fault"
	case ExitKilled:
		return "killed"
	case ExitDone:
		return "done"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// IsFault reports whether the cause is abnormal termination — the kind
// a supervisor should treat as a fault (restartable failure) rather
// than a voluntary exit or administrative removal.
func (c ExitCause) IsFault() bool {
	switch c {
	case ExitFault, ExitBadSyscall, ExitStackOverflow, ExitRestoreFault:
		return true
	}
	return false
}

// ExitReason is the structured record of one task termination.
type ExitReason struct {
	Cause ExitCause
	// PC is the program counter at termination (faulting instruction
	// for ExitFault).
	PC uint32
	// FaultAddr is the offending data address when the cause carries
	// one (EA-MPU violations, bus errors).
	FaultAddr uint32
	// SVC is the service number for ExitBadSyscall.
	SVC uint16
	// Cycle is the simulated time of the exit.
	Cycle uint64
	// Detail is a human-readable elaboration (violation text, the
	// killer's reason).
	Detail string
}

// String formats the reason compactly.
func (r ExitReason) String() string {
	s := fmt.Sprintf("%s at cycle %d", r.Cause, r.Cycle)
	if r.PC != 0 {
		s += fmt.Sprintf(", pc %#x", r.PC)
	}
	if r.FaultAddr != 0 {
		s += fmt.Sprintf(", addr %#x", r.FaultAddr)
	}
	if r.Cause == ExitBadSyscall {
		s += fmt.Sprintf(", svc %d", r.SVC)
	}
	if r.Detail != "" {
		s += ": " + r.Detail
	}
	return s
}

// ExitRecord pairs a terminated task's identity with its exit reason —
// what the kernel retains after the TCB is gone.
type ExitRecord struct {
	ID     TaskID
	Name   string
	Kind   TaskKind
	Reason ExitReason
}

// faultExitReason derives an ExitReason from a CPU fault, digging the
// offending data address out of the wrapped cause when present.
func faultExitReason(cycle uint64, f *machine.Fault) ExitReason {
	r := ExitReason{Cause: ExitFault, Cycle: cycle}
	if f == nil {
		return r
	}
	r.PC = f.PC
	r.Detail = f.Why
	var v *eampu.Violation
	if errors.As(f.Wrap, &v) {
		r.FaultAddr = v.Addr
		r.Detail = v.Error()
	}
	var be *machine.BusError
	if errors.As(f.Wrap, &be) {
		r.FaultAddr = be.Addr
		r.Detail = be.Error()
	}
	return r
}

// recordExit stamps the reason on the TCB and retains an ExitRecord for
// later queries. It is idempotent per task (first reason wins).
func (k *Kernel) recordExit(t *TCB, reason ExitReason) ExitRecord {
	if reason.Cycle == 0 {
		reason.Cycle = k.M.Cycles()
	}
	if t.Exit == nil {
		r := reason
		t.Exit = &r
	}
	rec := ExitRecord{ID: t.ID, Name: t.Name, Kind: t.Kind, Reason: *t.Exit}
	if k.exits == nil {
		k.exits = make(map[TaskID]ExitRecord)
	}
	if _, seen := k.exits[t.ID]; !seen {
		k.exits[t.ID] = rec
		k.exitOrder = append(k.exitOrder, t.ID)
	}
	return rec
}

// ExitInfo returns the retained exit record for a terminated task — the
// kernel query API for "why did task id die?". ok is false while the
// task is alive or was never known.
func (k *Kernel) ExitInfo(id TaskID) (ExitRecord, bool) {
	rec, ok := k.exits[id]
	return rec, ok
}

// Exits returns every retained exit record in termination order.
func (k *Kernel) Exits() []ExitRecord {
	out := make([]ExitRecord, 0, len(k.exitOrder))
	for _, id := range k.exitOrder {
		out = append(out, k.exits[id])
	}
	return out
}

// Kill terminates a task with an explicit cause and reason, which the
// exit record carries to the supervisor's policy; the scenario matrix
// uses it to inject a fault.
func (k *Kernel) Kill(id TaskID, cause ExitCause, detail string) error {
	t, ok := k.tasks[id]
	if !ok {
		return ErrNoSuchTask
	}
	if k.current == t && t.IsISA() && k.ctxLive {
		k.ctxLive = false
	}
	k.removeTaskWith(t, ExitReason{Cause: cause, Detail: detail})
	return nil
}
