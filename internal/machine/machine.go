// Package machine models the simulated embedded platform: a 32-bit core
// with a flat physical address space, memory-mapped I/O, an IDT-based
// exception engine, an EA-MPU on the memory path, and a deterministic
// cycle counter.
//
// The machine corresponds to the Intel Siskiyou Peak platform of the
// TyTAN prototype. It is deliberately a *mechanism* layer: it executes
// ISA code, charges cycles, checks every access against the EA-MPU and
// raises interrupt lines — but the software side of interrupt handling
// (the trusted Int Mux, the scheduler) lives above it in internal/rtos
// and internal/trusted, mirroring the paper's hardware/software split.
//
// All results produced on this machine are deterministic: time is the
// cycle counter, never the host clock.
package machine

import (
	"fmt"

	"repro/internal/eampu"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Physical memory map.
const (
	// RAMBase is the first mapped RAM address. Addresses below it fault,
	// acting as a null-pointer guard.
	RAMBase = 0x0000_1000

	// DefaultRAMSize is the default amount of mapped RAM.
	DefaultRAMSize = 4 << 20

	// IDTBase is the address of the interrupt descriptor table. The
	// table has IDTEntries 4-byte handler slots and is protected by a
	// locked EA-MPU rule installed during secure boot.
	IDTBase = RAMBase

	// IDTEntries is the number of interrupt vectors.
	IDTEntries = 32

	// IDTSize is the byte size of the IDT.
	IDTSize = IDTEntries * 4

	// ContextFrameBytes is the saved context frame the kernel pushes
	// below a task's live stack pointer on every pre-emption: r0..r7,
	// EIP and EFLAGS. The loader's admission check and sverify's stack
	// bound add it to a task's static stack bound, since a task may be
	// interrupted at its point of deepest stack use.
	ContextFrameBytes = (isa.NumRegs + 2) * 4

	// MMIOBase is the start of the memory-mapped I/O window. Each
	// device occupies a 256-byte page.
	MMIOBase = 0xF000_0000

	// MMIOWindow is the size of one device page.
	MMIOWindow = 0x100
)

// Interrupt lines.
const (
	IRQTimer = 0 // periodic scheduler tick
	IRQExt0  = 8 // first external line (tests, peripherals)
	NumIRQs  = 32
)

// Context is the full CPU register state of a task — "the context of
// the task" in the paper's terminology.
type Context struct {
	Regs   [isa.NumRegs]uint32
	EIP    uint32
	EFLAGS uint32
}

// Fault describes a CPU fault: an EA-MPU violation, an illegal
// instruction, a misaligned or unmapped access.
type Fault struct {
	PC   uint32
	Why  string
	Wrap error
}

func (f *Fault) Error() string {
	if f.Wrap != nil {
		return fmt.Sprintf("machine: fault at pc %#x: %s: %v", f.PC, f.Why, f.Wrap)
	}
	return fmt.Sprintf("machine: fault at pc %#x: %s", f.PC, f.Why)
}

// Unwrap exposes the underlying cause (e.g. an *eampu.Violation).
func (f *Fault) Unwrap() error { return f.Wrap }

// StopReason says why Run returned.
type StopReason int

// Stop reasons.
const (
	StopBudget StopReason = iota // cycle budget exhausted
	StopHalt                     // HLT executed
	StopSVC                      // software interrupt executed
	StopFault                    // CPU fault (EIP unchanged at faulting insn)
	StopIRQ                      // interrupt pending and interrupts enabled
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case StopBudget:
		return "budget"
	case StopHalt:
		return "halt"
	case StopSVC:
		return "svc"
	case StopFault:
		return "fault"
	case StopIRQ:
		return "irq"
	default:
		return fmt.Sprintf("stop(%d)", int(r))
	}
}

// RunResult reports the outcome of a Run call.
type RunResult struct {
	Reason StopReason
	SVC    uint16 // service number for StopSVC
	Fault  *Fault // fault details for StopFault
	Steps  uint64 // instructions retired
}

// Machine is the simulated platform.
type Machine struct {
	MPU *eampu.MPU

	// FastPath selects the production engine: the interpreter's decode
	// and EA-MPU decision caches (fastpath.go) plus, inside Run, the
	// superblock compiler (superblock.go). When false the machine is the
	// reference oracle: every instruction goes through the full decode
	// and EA-MPU rule scan and nothing is compiled. Either setting
	// produces bit-for-bit identical architectural behaviour — cycles,
	// faults, traces, stop reasons; the knob only selects how much host
	// work each instruction costs. New initializes it from
	// FastPathDefault.
	FastPath bool

	ram     []byte
	cycles  uint64
	devices map[uint32]Device // MMIO page index -> device
	sources []IRQSource
	// pollAt is the earliest cycle any interrupt source could next
	// assert (0 = unknown, poll now). Charge skips the per-instruction
	// source scan while cycles stay below it; devices reset it to 0
	// through their schedule-change hook whenever reprogrammed.
	pollAt uint64

	// Fast-path caches (fastpath.go). gen is the machine generation all
	// cache entries are tagged with; mpuGen mirrors the last observed
	// EA-MPU configuration generation.
	gen    uint32
	mpuGen uint64
	icache []icEntry
	// icMask is the predecode-table index mask (table size - 1). It
	// starts at 1<<icacheBits - 1 and grows with the loaded text extent
	// (GrowICacheForText) so large images do not thrash the
	// direct-mapped table.
	icMask    uint32
	textBytes uint32 // cumulative loaded text, drives icache growth
	exec      [execWays]execSpan
	dcache    [2][dcacheWays]dataSpan // [AccessRead/AccessWrite][execPC hash]
	// codeLo/codeHi bound the addresses holding cached code this
	// generation: writes outside the range skip line-overlap probing.
	codeLo, codeHi uint32

	// Superblock engine state (superblock.go). sbcache is the compiled-
	// block table; sbPages marks, per 256-byte RAM granule, the
	// generation under which compiled code covers the granule, with
	// sbLo/sbHi bounding the covered address range so ordinary data
	// writes cost one range check. sbOff is per-op scratch: the RAM
	// offset sbCheckData validated for the op's effect that follows it.
	sbcache    []sbEntry
	sbPages    []uint32
	sbLo, sbHi uint32
	sbOff      uint32
	// ramHi is the dirty-RAM watermark (highest written offset + 1) and
	// dirty the 4 KiB dirty-page bitmap; Release re-zeroes only dirtied
	// pages to recycle the buffer.
	ramHi uint32
	dirty [dirtyWords]uint64

	// insnRetired counts instructions the CPU has begun executing (a
	// host-throughput denominator; not an architectural quantity).
	insnRetired uint64

	// Host-side fast-path counters, bumped only on the cold paths
	// (cache fills and generation bumps), never per instruction.
	decodeMisses  uint64
	execSpanFills uint64
	dataSpanFills uint64
	genBumps      uint64

	// Superblock engine counters (same contract: cold paths only).
	sbCompiles      uint64
	sbHits          uint64
	sbBails         uint64
	sbFallbacks     uint64
	sbInvalidations uint64

	// CPU state.
	regs     [isa.NumRegs]uint32
	eip      uint32
	eflags   uint32
	lastPC   uint32
	branched bool
	// decoded is the reference fetch's one decode slot: fetch decodes
	// into it and hands Step a pointer, as the fast path hands out its
	// predecode table entry.
	decoded isa.Instruction

	// Interrupt controller state.
	pending   uint32
	intEnable bool
	raisedAt  [NumIRQs]uint64

	// execPC is the bus-master context used for EA-MPU checks: the CPU
	// sets it to EIP each step; native (trusted firmware) code sets it
	// to an address inside its own code region via WithExecContext.
	execPC uint32

	// OnStep, when set, observes every retired instruction before it
	// executes (pc, decoded form) — the simulator's instruction-trace
	// hook. It must not mutate machine state, except that it may rewrite
	// code: the instruction it observes still runs as fetched, and any
	// later instruction runs its new bytes (TestRewriteOwnBytes,
	// TestHookRewritesLaterOp).
	OnStep func(pc uint32, in isa.Instruction)

	// Obs, when set, is the platform's one event sink: the machine, the
	// kernel, the trusted components and the loader all report through
	// Emit. Emission charges no cycles and must not mutate state.
	Obs trace.Sink
	// attrs is Emit's arena: each event's attrs are copied into it, so
	// callers' variadic slices never escape.
	attrs trace.Arena
}

// New creates a machine with the given amount of RAM (0 selects
// DefaultRAMSize) and a fresh, disabled EA-MPU.
func New(ramSize uint32) *Machine {
	if ramSize == 0 {
		ramSize = DefaultRAMSize
	}
	return &Machine{
		MPU:      &eampu.MPU{},
		FastPath: FastPathDefault,
		ram:      getTable[byte](&ramPool, int(ramSize)),
		devices:  make(map[uint32]Device),
		gen:      1, // zero-valued cache entries must never match
		codeLo:   eampu.MaxAddr,
		sbLo:     eampu.MaxAddr,
		icMask:   1<<icacheBits - 1,
	}
}

// InsnRetired returns the number of instructions the CPU has started
// executing since reset. It is host-telemetry (the denominator of the
// host-MIPS metric), not a paper quantity.
func (m *Machine) InsnRetired() uint64 { return m.insnRetired }

// Stats is a snapshot of the machine's host-side performance counters:
// how the interpreter fast path is doing, not what the simulated
// hardware did. All counters bump only on cold paths (cache fills,
// generation changes), so reading them never perturbs a measurement.
type Stats struct {
	InsnRetired   uint64 // instructions started
	DecodeMisses  uint64 // predecode-cache misses (full decodes)
	ExecSpanFills uint64 // exec-permission span refills (full MPU scans)
	DataSpanFills uint64 // data decision-cache refills (full MPU scans)
	GenBumps      uint64 // cache invalidations (MPU reconfig / code writes)

	// Superblock engine counters.
	SBCompiles      uint64 // blocks compiled (includes recompiles after invalidation)
	SBHits          uint64 // compiled blocks dispatched from the block cache
	SBBails         uint64 // mid-block exits back to the interpreter
	SBFallbacks     uint64 // dispatches declined (guards, empty blocks)
	SBInvalidations uint64 // generation bumps from writes into compiled code
}

// Stats returns the current fast-path counters.
func (m *Machine) Stats() Stats {
	return Stats{
		InsnRetired:   m.insnRetired,
		DecodeMisses:  m.decodeMisses,
		ExecSpanFills: m.execSpanFills,
		DataSpanFills: m.dataSpanFills,
		GenBumps:      m.genBumps,

		SBCompiles:      m.sbCompiles,
		SBHits:          m.sbHits,
		SBBails:         m.sbBails,
		SBFallbacks:     m.sbFallbacks,
		SBInvalidations: m.sbInvalidations,
	}
}

// RAMSize returns the amount of mapped RAM in bytes.
func (m *Machine) RAMSize() uint32 { return uint32(len(m.ram)) }

// RAMEnd returns the first address past mapped RAM.
func (m *Machine) RAMEnd() uint32 { return RAMBase + uint32(len(m.ram)) }

// Cycles returns the current cycle counter.
func (m *Machine) Cycles() uint64 { return m.cycles }

// Emit sends one typed event, stamped with the cycle counter, to Obs; a
// nil Obs drops it. Call sites on frequent paths guard with m.Obs != nil
// themselves so attribute construction is skipped when nothing listens.
// The event's attrs are a copy in the machine's arena, capacity-clipped
// so a consumer's append cannot reach its neighbour's.
func (m *Machine) Emit(sub trace.Subsystem, kind trace.Kind, subject string, attrs ...trace.Attr) {
	if m.Obs == nil {
		return
	}
	m.Obs.Emit(trace.Event{Cycle: m.cycles, Sub: sub, Kind: kind, Subject: subject, Attrs: m.attrs.Copy(attrs...)})
}

// Charge advances the cycle counter by n and polls interrupt sources so
// that device interrupts assert at the correct simulated time even while
// native firmware code is running.
func (m *Machine) Charge(n uint64) {
	m.cycles += n
	// While cycles stay below pollAt no source can report due: every
	// source told us (via nextDue) when it could next fire, and any
	// reprogramming since would have reset pollAt. The body stays tiny
	// so it inlines into the interpreter loop.
	if m.cycles >= m.pollAt {
		m.pollSources()
	}
}

// pollSources drains every due interrupt source and recomputes the poll
// watermark.
func (m *Machine) pollSources() {
	for _, s := range m.sources {
		for {
			line, due := s.Due(m.cycles)
			if !due {
				break
			}
			m.RaiseIRQ(line)
		}
	}
	m.pollAt = m.nextDue()
}

// nextDue computes the earliest cycle any interrupt source could next
// report due, or 0 (always poll) when some source cannot say.
func (m *Machine) nextDue() uint64 {
	next := ^uint64(0)
	for _, s := range m.sources {
		sch, ok := s.(irqScheduler)
		if !ok {
			return 0
		}
		cycle, scheduled := sch.nextDue()
		if scheduled && cycle < next {
			next = cycle
		}
	}
	return next
}

// --- Interrupt controller -------------------------------------------------

// RaiseIRQ asserts an interrupt line. The assertion time is recorded so
// the kernel can account interrupt-service latency (a real-time
// compliance metric).
func (m *Machine) RaiseIRQ(line int) {
	if line >= 0 && line < NumIRQs {
		if m.pending&(1<<uint(line)) == 0 {
			m.raisedAt[line] = m.cycles
		}
		m.pending |= 1 << uint(line)
	}
}

// RaisedAt returns the cycle at which the line was most recently
// asserted while clear.
func (m *Machine) RaisedAt(line int) uint64 {
	if line < 0 || line >= NumIRQs {
		return 0
	}
	return m.raisedAt[line]
}

// AckIRQ clears a pending interrupt line.
func (m *Machine) AckIRQ(line int) {
	if line >= 0 && line < NumIRQs {
		m.pending &^= 1 << uint(line)
	}
}

// SetInterruptsEnabled sets the global interrupt-enable flag (the
// CPU-level IF).
func (m *Machine) SetInterruptsEnabled(on bool) { m.intEnable = on }

// PendingIRQ returns the lowest-numbered pending interrupt line, if
// any. It does not consider the global enable flag.
func (m *Machine) PendingIRQ() (line int, ok bool) {
	if m.pending == 0 {
		return 0, false
	}
	for i := 0; i < NumIRQs; i++ {
		if m.pending&(1<<uint(i)) != 0 {
			return i, true
		}
	}
	return 0, false
}

// InterruptDeliverable reports whether an interrupt should pre-empt the
// CPU right now.
func (m *Machine) InterruptDeliverable() bool {
	_, ok := m.PendingIRQ()
	return ok && m.intEnable
}

// SetIDTHandler writes a handler address into the IDT, bypassing the
// EA-MPU. Only secure boot uses it; software must go through the bus and
// is stopped by the locked rule.
func (m *Machine) SetIDTHandler(vector int, handler uint32) error {
	if vector < 0 || vector >= IDTEntries {
		return fmt.Errorf("machine: vector %d out of range", vector)
	}
	return m.RawWrite32(IDTBase+uint32(vector*4), handler)
}

// --- CPU state accessors ---------------------------------------------------

// Reg returns the value of a general-purpose register.
func (m *Machine) Reg(r isa.Reg) uint32 { return m.regs[r] }

// SetReg sets a general-purpose register.
func (m *Machine) SetReg(r isa.Reg, v uint32) { m.regs[r] = v }

// EIP returns the instruction pointer.
func (m *Machine) EIP() uint32 { return m.eip }

// SetEIP sets the instruction pointer. The next fetch is treated as a
// control transfer (entry-point enforcement applies).
func (m *Machine) SetEIP(v uint32) {
	m.eip = v
	m.branched = true
}

// SaveContext captures the CPU register state.
func (m *Machine) SaveContext() Context {
	return Context{Regs: m.regs, EIP: m.eip, EFLAGS: m.eflags}
}

// LoadContext restores CPU register state saved by SaveContext. The
// next fetch is treated as sequential execution at the restored EIP:
// a context restore happens through the task's trusted entry routine,
// which re-enters the region at its entry point and branches to the
// resume address from *inside* the region, so entry-point enforcement
// does not re-fire. (Only trusted native code can call LoadContext;
// ISA-level control transfers always go through the checked paths.)
func (m *Machine) LoadContext(c Context) {
	m.regs = c.Regs
	m.eip = c.EIP
	m.eflags = c.EFLAGS
	m.lastPC = c.EIP
	m.branched = false
}

// WipeRegisters clears all general-purpose registers and flags (the Int
// Mux does this before handing control to untrusted handlers).
func (m *Machine) WipeRegisters() {
	m.regs = [isa.NumRegs]uint32{}
	m.eflags = 0
}

// WithExecContext runs fn with the bus-master protection context set to
// pc. Trusted native components use it so that their memory accesses are
// checked against *their* EA-MPU rules, exactly as if their code
// executed from its assigned region.
func (m *Machine) WithExecContext(pc uint32, fn func()) {
	old := m.execPC
	m.execPC = pc
	defer func() { m.execPC = old }()
	fn()
}
