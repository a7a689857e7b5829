package rtos

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/machine"
	"repro/internal/trace"
)

// spReg is the stack-pointer register.
const spReg = isa.SP

// contextFrameBytes is the size of a saved context frame: r0..r7
// pushed by software plus EIP and EFLAGS pushed by the exception engine.
const contextFrameBytes = machine.ContextFrameBytes

// contextFrameWords is the frame size in words.
const contextFrameWords = contextFrameBytes / 4

// NewServiceTask registers a trusted native service as a schedulable
// task. Service tasks are secure tasks whose code runs natively; they
// have no ISA context. A service starts asleep: it first runs when
// WakeAt gives it work.
func (k *Kernel) NewServiceTask(name string, prio int, svc Service) (*TCB, error) {
	if prio < 0 || prio >= NumPriorities {
		return nil, ErrBadPriority
	}
	t := &TCB{
		ID:       k.allocID(),
		Name:     name,
		Kind:     KindService,
		Priority: prio,
		State:    StateBlocked,
		Service:  svc,
	}
	k.tasks[t.ID] = t
	k.taskOrder = append(k.taskOrder, t)
	return t, nil
}

func (k *Kernel) allocID() TaskID {
	k.nextID++
	return k.nextID
}

// PrepareStack writes the initial context frame at the top of the
// task's stack — "the OS prepares the stack of this task as if it had
// been executed before and was interrupted" (§4) — and returns the
// cycle cost (charged by the caller so creation phases can be accounted
// separately).
func (k *Kernel) PrepareStack(p loader.Placement) (savedSP uint32, cost uint64, err error) {
	top := p.StackTop()
	savedSP = top - contextFrameBytes
	frame := make([]uint32, contextFrameWords)
	frame[isa.NumRegs] = p.EntryAddr() // EIP
	frame[isa.NumRegs+1] = 0           // EFLAGS
	for i, w := range frame {
		if err := k.M.RawWrite32(savedSP+uint32(i*4), w); err != nil {
			return 0, 0, err
		}
	}
	return savedSP, uint64(contextFrameWords) * machine.CostStackPrepWord, nil
}

// InstallTaskSuspended registers an already-loaded ISA task with the
// scheduler, doing stack preparation and TCB initialization (step 3 of
// the paper's loading sequence), and leaves the task in StateSuspended:
// loaded but not yet executable. The TyTAN loader
// uses it so the EA-MPU configuration and the RTM measurement (steps 4
// and 5) happen while the task provably cannot run, then calls Resume
// (step 6, "the OS is notified to schedule t").
func (k *Kernel) InstallTaskSuspended(name string, kind TaskKind, prio int, p loader.Placement) (*TCB, error) {
	if prio < 0 || prio >= NumPriorities {
		return nil, ErrBadPriority
	}
	if kind == KindService {
		return nil, fmt.Errorf("rtos: InstallTaskSuspended is for ISA tasks; use NewServiceTask")
	}
	if kind == KindSecure && !k.Cfg.TyTAN {
		return nil, fmt.Errorf("rtos: secure tasks require the TyTAN configuration")
	}
	savedSP, prepCost, err := k.PrepareStack(p)
	if err != nil {
		return nil, err
	}
	k.M.Charge(prepCost + machine.CostTCBInit)
	t := &TCB{
		ID:        k.allocID(),
		Name:      name,
		Kind:      kind,
		Priority:  prio,
		Placement: p,
		EntryAddr: p.EntryAddr(),
		SavedSP:   savedSP,
		EntryInfo: EntryFreshStart,
		State:     StateSuspended,
	}
	t.MPUOwner = uint32(t.ID)
	k.tasks[t.ID] = t
	k.taskOrder = append(k.taskOrder, t)
	k.M.Charge(machine.CostSchedulerAdd)
	if k.M.Obs != nil {
		k.M.Emit(trace.SubKernel, trace.KindTaskInstall, name,
			trace.Num("id", uint64(t.ID)), trace.Str("kind", kind.String()),
			trace.Num("prio", uint64(prio)), trace.Hex("base", uint64(p.Base)))
	}
	return t, nil
}

// removeTaskWith deletes t from the kernel: exit recording, hooks,
// memory reclamation, scheduler cleanup ("Unloading a task requires
// deleting it from the OS scheduler and reclaiming its memory", §4).
func (k *Kernel) removeTaskWith(t *TCB, reason ExitReason) {
	if t.State == StateDead {
		return
	}
	rec := k.recordExit(t, reason)
	// Every exit path funnels through here, so one typed event covers
	// halt, self-exit, faults and kills alike.
	if k.M.Obs != nil {
		attrs := []trace.Attr{
			trace.Num("id", uint64(t.ID)),
			trace.Str("cause", rec.Reason.Cause.String()),
		}
		if rec.Reason.PC != 0 {
			attrs = append(attrs, trace.Hex("pc", uint64(rec.Reason.PC)))
		}
		if rec.Reason.FaultAddr != 0 {
			attrs = append(attrs, trace.Hex("addr", uint64(rec.Reason.FaultAddr)))
		}
		if rec.Reason.Cause == ExitBadSyscall {
			attrs = append(attrs, trace.Num("svc", uint64(rec.Reason.SVC)))
		}
		k.M.Emit(trace.SubKernel, trace.KindTaskExit, t.Name, attrs...)
	}
	if k.Hooks != nil {
		k.Hooks.TaskExiting(k, t)
	}
	k.retireDeadline(t)
	k.M.Charge(machine.CostTaskExitClean)
	k.removeFromReady(t)
	if t.IsISA() && t.Placement.Image != nil {
		if _, ok := k.Alloc.SizeOf(t.Placement.Base); ok {
			k.Alloc.Free(t.Placement.Base)
		}
	}
	t.State = StateDead
	if k.current == t {
		k.current = nil
		k.ctxLive = false
	}
	delete(k.tasks, t.ID)
	for i, x := range k.taskOrder {
		if x == t {
			k.taskOrder = append(k.taskOrder[:i], k.taskOrder[i+1:]...)
			break
		}
	}
	if k.OnTaskExit != nil {
		k.OnTaskExit(k, rec)
	}
}

// Unload kills a task by ID (the dynamic unloading of §4). A live
// context is dropped, not banked: the task's memory is reclaimed.
func (k *Kernel) Unload(id TaskID) error {
	t, ok := k.tasks[id]
	if !ok {
		return ErrNoSuchTask
	}
	k.removeTaskWith(t, ExitReason{Cause: ExitKilled, Detail: "unloaded"})
	return nil
}

// Suspend stops a task from being scheduled until Resume. Suspending
// the current task parks its context.
func (k *Kernel) Suspend(id TaskID) error {
	t, ok := k.tasks[id]
	if !ok {
		return ErrNoSuchTask
	}
	k.M.Charge(machine.CostSuspendResume)
	if k.current == t {
		k.bankContext()
		k.current = nil
	}
	if t.State == StateDead {
		return ErrDeadTask
	}
	k.removeFromReady(t)
	t.State = StateSuspended
	t.EntryInfo = EntryResumed
	return nil
}

// Resume makes a suspended task schedulable again.
func (k *Kernel) Resume(id TaskID) error {
	t, ok := k.tasks[id]
	if !ok {
		return ErrNoSuchTask
	}
	if t.State == StateDead {
		return ErrDeadTask
	}
	k.M.Charge(machine.CostSuspendResume)
	if t.State == StateSuspended {
		k.enqueue(t)
	}
	return nil
}

// bankContext saves the current ISA task's live context as one
// 10-word frame on the task's own stack (§4 "Interrupting secure
// tasks") through the configured InterruptPath. Before any byte is
// written it checks that the frame span [SP-40, SP) lies inside the
// task's stack reservation, so a forged SP cannot aim the save at
// another principal's memory. A task that fails the check, or whose
// save faults anyway, is removed with a typed exit; callers test
// t.State for StateDead. The check is not charged.
func (k *Kernel) bankContext() {
	t := k.current
	if t == nil || !t.IsISA() || !k.ctxLive {
		return
	}
	k.ctxLive = false
	sp := k.M.Reg(spReg)
	base, top := t.Placement.StackBase(), t.Placement.StackTop()
	if sp < base+contextFrameBytes || sp > top {
		k.removeTaskWith(t, ExitReason{
			Cause:     ExitStackOverflow,
			FaultAddr: sp - contextFrameBytes,
			Detail: fmt.Sprintf("context frame [%#x,%#x) outside stack [%#x,%#x)",
				sp-contextFrameBytes, sp, base, top),
		})
		return
	}
	if err := k.IntPath.Save(k, t); err != nil {
		k.removeTaskWith(t, ExitReason{Cause: ExitFault, Detail: "context save: " + err.Error()})
	}
}

// DelayCurrent blocks the current ISA task for the given number of
// cycles. Called from the syscall path with a live context.
func (k *Kernel) DelayCurrent(cycles uint64) {
	t := k.current
	if t == nil {
		return
	}
	k.bankContext()
	if t.State == StateDead {
		return
	}
	t.State = StateBlocked
	t.wakeAt = k.M.Cycles() + cycles
	k.current = nil
}

// BlockCurrent parks the current task in StateBlocked without a wake
// deadline; something must later call Unblock. Used by IPC receive.
func (k *Kernel) BlockCurrent() {
	t := k.current
	if t == nil {
		return
	}
	k.bankContext()
	if t.State == StateDead {
		return
	}
	t.State = StateBlocked
	t.wakeAt = 0
	k.current = nil
}

// Unblock makes a blocked task ready (message arrival).
// info is delivered in R0 at the next restore.
func (k *Kernel) Unblock(t *TCB, info uint32) {
	if t.State != StateBlocked {
		return
	}
	t.wakeAt = 0
	t.EntryInfo = info
	k.enqueue(t)
}

// WakeAt gives a sleeping service task work at cycle: at or before now
// it is readied at once; later, it sleeps until the earlier of cycle and
// the wake it already has. A ready or running service publishes its own
// next wake from Step, so WakeAt leaves it alone.
func (k *Kernel) WakeAt(t *TCB, cycle uint64) {
	if t.IsISA() || t.State != StateBlocked {
		return
	}
	if cycle <= k.M.Cycles() {
		t.wakeAt = 0
		k.enqueue(t)
	} else if t.wakeAt == 0 || cycle < t.wakeAt {
		t.wakeAt = cycle
	}
}

// YieldCurrent requeues the current task behind its priority peers.
func (k *Kernel) YieldCurrent() {
	t := k.current
	if t == nil {
		return
	}
	k.bankContext()
	if t.State == StateDead {
		return
	}
	t.EntryInfo = EntryResumed
	k.enqueue(t)
	k.current = nil
}
