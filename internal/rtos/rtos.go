// Package rtos implements the real-time operating system of the
// simulated platform: a FreeRTOS-like kernel with priority-based
// pre-emptive scheduling, a periodic tick and delays — extended, as in
// the paper, with TyTAN's hooks for secure tasks. Tasks block only on
// delays and on IPC (BlockCurrent/Unblock); the kernel has no queue,
// semaphore, mutex or software-timer objects, because no syscall would
// expose them to a guest.
//
// The kernel runs *inside* the simulation: all of its work is charged to
// the machine's cycle counter through the calibrated cost model, and all
// task state (contexts, stacks) lives in simulated memory, so the EA-MPU
// governs exactly who can touch it.
//
// Two configurations exist, mirroring the paper's evaluation baseline:
//
//   - Baseline: unmodified-FreeRTOS behaviour. The plain interrupt
//     handler saves contexts, no register wiping, no secure tasks.
//   - TyTAN: the trusted Int Mux (internal/trusted) is installed as the
//     kernel's InterruptPath, secure tasks are isolated by the EA-MPU,
//     and creation goes through the RTM measurement.
//
// The package deliberately knows nothing about measurement, attestation
// or IPC policy: those are the trusted components layered on top. It
// exposes the extension points (InterruptPath, SyscallHandler,
// TaskHooks) they plug into.
package rtos

import (
	"errors"
	"fmt"

	"repro/internal/loader"
	"repro/internal/machine"
)

// NumPriorities is the number of scheduling priorities; higher number =
// more urgent.
const NumPriorities = 8

// TaskID identifies a task for the kernel's lifetime.
type TaskID uint32

// TaskKind distinguishes the paper's task types.
type TaskKind int

// Task kinds.
const (
	// KindNormal tasks are isolated from other tasks but accessible to
	// the OS.
	KindNormal TaskKind = iota
	// KindSecure tasks are isolated from all other software including
	// the OS.
	KindSecure
	// KindService tasks are trusted native components (RTM, IPC proxy
	// targets, secure storage) modeled as resumable Go state machines.
	// They are secure tasks in the paper's sense; "service" only marks
	// that their code runs natively rather than through the ISA
	// interpreter.
	KindService
)

// String names the kind.
func (k TaskKind) String() string {
	switch k {
	case KindNormal:
		return "normal"
	case KindSecure:
		return "secure"
	case KindService:
		return "service"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// TaskState is the scheduling state of a task.
type TaskState int

// Task states.
const (
	StateReady TaskState = iota
	StateRunning
	StateBlocked   // delayed, waiting for a message, or an idle service
	StateSuspended // explicitly suspended; not schedulable until resumed
	StateDead
)

// String names the state.
func (s TaskState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateSuspended:
		return "suspended"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Service is a trusted native task body. Step must perform at most
// budget cycles of work, charge them on the machine itself (or return
// them as used), and return promptly — bounded execution per step is
// what makes the trusted components real-time compliant.
type Service interface {
	// Step advances the service by at most budget cycles. used is the
	// cycle cost the kernel charges on the service's behalf (work done
	// directly on the machine with Charge should not be double-counted
	// in used). wake is the one way a service says when it next has
	// work: 0 for none (it sleeps until Kernel.WakeAt); a cycle at or
	// before the cycle after charging used to be ready again; a later
	// cycle to sleep until then, like a delayed task.
	Step(k *Kernel, self *TCB, budget uint64) (used, wake uint64)
}

// TCB is a task control block.
type TCB struct {
	ID       TaskID
	Name     string
	Kind     TaskKind
	Priority int
	State    TaskState

	// ISA-task fields.
	Placement loader.Placement
	EntryAddr uint32
	// SavedSP points at the saved register frame on the task's stack
	// while the task is not running. The frame layout (low to high) is
	// r0..r7, EIP, EFLAGS — "the OS prepares the stack of this task as
	// if it had been executed before and was interrupted" (§4), so a
	// fresh task and a pre-empted task restore identically.
	SavedSP uint32

	// Service-task field.
	Service Service

	// wakeAt is the cycle at which a delayed task or a sleeping service
	// becomes ready (0: none).
	wakeAt uint64

	// R0 override delivered at next restore: the paper's "TyTAN
	// provides this information in a CPU register, which is checked by
	// the entry routine" — 0 fresh start, 1 resumed, 2 message pending.
	EntryInfo uint32

	// Owner tag for EA-MPU rules (mirrors TCB identity; assigned by the
	// trusted layer).
	MPUOwner uint32

	// Accounting.
	Activations uint64 // times dispatched
	CPUCycles   uint64 // cycles executed (ISA) or charged (service)

	// burstAcc accumulates the cycles of the current execution burst
	// across pre-emptions and budget splits; a trap boundary (SVC, HLT,
	// fault) closes it with a task-burst trace event. The static
	// verifier's worst-case burst bound covers exactly this quantity.
	burstAcc uint64

	// Exit records why the task terminated (nil while alive). Set once
	// by the kernel's exit paths; see exit.go.
	Exit *ExitReason
}

// Entry-info register values (delivered in R0 by the entry routine).
const (
	EntryFreshStart uint32 = 0
	EntryResumed    uint32 = 1
	EntryMessage    uint32 = 2
)

// IsISA reports whether the task executes interpreted code.
func (t *TCB) IsISA() bool { return t.Kind != KindService }

// InterruptPath abstracts how task contexts are saved around interrupts:
// the unmodified-FreeRTOS handler in the baseline, the trusted Int Mux
// under TyTAN.
type InterruptPath interface {
	// Save persists the context of the interrupted task t. The hardware
	// has already pushed EIP and EFLAGS onto t's stack; Save pushes the
	// GPRs and records the frame in t.SavedSP. Costs are charged on the
	// machine.
	Save(k *Kernel, t *TCB) error
	// Restore rebuilds the CPU state of t from its saved frame and
	// prepares it to run (EIP at the resume point). Costs are charged
	// on the machine.
	Restore(k *Kernel, t *TCB) error
}

// SyscallHandler processes SVC traps not handled by the kernel core
// (IPC, attestation, storage). Implemented by the trusted layer.
type SyscallHandler interface {
	// HandleSyscall services SVC number svc raised by task t. It
	// returns false if the number is unknown (the kernel kills t).
	HandleSyscall(k *Kernel, t *TCB, svc uint16) bool
}

// TaskHooks observes task lifecycle events. The trusted layer uses the
// hooks to configure EA-MPU rules and trigger measurement.
type TaskHooks interface {
	// TaskExiting runs before task t is removed (cleanup of rules,
	// registry entries).
	TaskExiting(k *Kernel, t *TCB)
}

// Config selects the kernel configuration.
type Config struct {
	// TyTAN enables the secure-task extensions. Off = the unmodified
	// FreeRTOS baseline of the paper's tables.
	TyTAN bool
}

// DefaultTickPeriod is the scheduler tick in cycles: one scheduling
// cycle of the use case's 1.5 kHz control tasks, 48 MHz / 1.5 kHz.
const DefaultTickPeriod = 32_000

// The dynamic task memory pool, placed after the kernel area.
const (
	taskPoolBase = 0x0010_0000
	taskPoolSize = 1 << 20
)

// Kernel is the RTOS instance.
type Kernel struct {
	M     *machine.Machine
	Timer *machine.Timer
	Alloc *loader.Allocator
	Cfg   Config

	IntPath  InterruptPath
	Syscalls SyscallHandler
	Hooks    TaskHooks

	tasks map[TaskID]*TCB
	// taskOrder lists live tasks in creation order: every scheduler
	// scan iterates it instead of the map so same-cycle wakeups enqueue
	// deterministically (the simulation must be bit-reproducible).
	taskOrder []*TCB
	nextID    TaskID
	ready     [NumPriorities][]*TCB
	// current is the task whose context is live on the CPU (or the
	// running service task).
	current *TCB
	// ctxLive is true while current's registers are actually in the CPU
	// (no restore needed before running it again).
	ctxLive bool

	ticks     uint64
	switches  uint64
	preempted uint64

	// Interrupt-latency accounting: cycles from line assertion to
	// handler completion.
	irqLatencyMax uint64
	irqLatencySum uint64
	irqLatencyN   uint64

	// Periodic-deadline monitoring (deadline.go). Nil until the first
	// RegisterDeadline, so unmonitored kernels pay one nil check.
	deadlines             map[TaskID]*deadlineWatch
	deadlineMissesRetired uint64

	// idleCycles counts time the CPU spent with nothing runnable.
	idleCycles uint64

	// Exit bookkeeping: retained records of every terminated task, in
	// termination order (see exit.go).
	exits     map[TaskID]ExitRecord
	exitOrder []TaskID

	// OnTaskExit, when set, observes every task termination with its
	// structured reason, after the task has been removed. The trusted
	// supervisor hooks it to drive restart/quarantine policy.
	OnTaskExit func(k *Kernel, rec ExitRecord)
}

// Kernel errors.
var (
	ErrNoSuchTask  = errors.New("rtos: no such task")
	ErrBadPriority = errors.New("rtos: priority out of range")
	ErrDeadTask    = errors.New("rtos: task is dead")
)

// NewKernel creates a kernel on machine m. The machine must have a
// timer mapped at the standard page (NewPlatform in internal/core does
// this); if none is present, one is created and mapped.
func NewKernel(m *machine.Machine, cfg Config) (*Kernel, error) {
	if taskPoolBase+taskPoolSize > m.RAMEnd() {
		return nil, fmt.Errorf("rtos: task pool [%#x,%#x) exceeds RAM end %#x",
			taskPoolBase, taskPoolBase+taskPoolSize, m.RAMEnd())
	}
	var timer *machine.Timer
	if d, ok := m.Device(machine.PageTimer); ok {
		t, ok := d.(*machine.Timer)
		if !ok {
			return nil, fmt.Errorf("rtos: device at timer page is %q", d.Name())
		}
		timer = t
	} else {
		timer = machine.NewTimer(m.Cycles)
		m.MapDevice(machine.PageTimer, timer)
	}
	alloc, err := loader.NewAllocator(taskPoolBase, taskPoolSize)
	if err != nil {
		return nil, err
	}
	k := &Kernel{
		M:     m,
		Timer: timer,
		Alloc: alloc,
		Cfg:   cfg,
		tasks: make(map[TaskID]*TCB),
	}
	k.IntPath = BaselinePath{}
	return k, nil
}

// StartTick programs and enables the scheduler tick and the global
// interrupt enable.
func (k *Kernel) StartTick() {
	k.Timer.Write(machine.TimerRegPeriod, DefaultTickPeriod)
	k.Timer.Write(machine.TimerRegCtrl, 1)
	k.M.SetInterruptsEnabled(true)
}

// Task returns the TCB for id.
func (k *Kernel) Task(id TaskID) (*TCB, bool) {
	t, ok := k.tasks[id]
	return t, ok
}

// Tasks returns all live TCBs in creation order.
func (k *Kernel) Tasks() []*TCB {
	return append([]*TCB(nil), k.taskOrder...)
}

// Ticks returns the number of scheduler ticks processed.
func (k *Kernel) Ticks() uint64 { return k.ticks }

// Switches returns the number of task dispatches.
func (k *Kernel) Switches() uint64 { return k.switches }

// Preempted returns the number of involuntary pre-emptions (interrupt
// or priority pre-emption parked a running task).
func (k *Kernel) Preempted() uint64 { return k.preempted }

// IdleCycles returns the cycles spent with nothing runnable.
func (k *Kernel) IdleCycles() uint64 { return k.idleCycles }

// Utilization returns the fraction of elapsed cycles the CPU was busy.
func (k *Kernel) Utilization() float64 {
	total := k.M.Cycles()
	if total == 0 {
		return 0
	}
	return 1 - float64(k.idleCycles)/float64(total)
}

// IRQLatency returns the maximum and mean interrupt-service latency in
// cycles (assertion to handler completion) observed so far.
func (k *Kernel) IRQLatency() (max uint64, mean float64, samples uint64) {
	if k.irqLatencyN == 0 {
		return 0, 0, 0
	}
	return k.irqLatencyMax, float64(k.irqLatencySum) / float64(k.irqLatencyN), k.irqLatencyN
}
