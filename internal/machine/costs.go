package machine

import "repro/internal/isa"

// This file is the single calibration point of the simulator.
//
// The TyTAN paper reports every result in clock cycles, measured on a
// Siskiyou Peak core synthesized on a Spartan-6 FPGA at 48 MHz. Our
// simulator charges cycles through the constants below; they are
// calibrated so that the *composed* operations (context save, task
// creation, measurement, …) land on the structure of Tables 2–7. The
// derivation of each group is explained inline; deviations from the
// paper's absolute numbers are recorded in EXPERIMENTS.md.

// ClockHz is the nominal clock rate of the modeled platform; used only
// to convert cycle counts to the wall-clock figures the paper quotes
// (e.g. the 27.8 ms task load in §6).
const ClockHz = 48_000_000

// Per-instruction execution costs for the interpreted ISA.
var instCost = [64]uint64{
	isa.OpNOP: 1, isa.OpHLT: 1, isa.OpMOV: 1, isa.OpLDI: 1, isa.OpLUI: 1,
	isa.OpLDI32: 2, isa.OpLD: 2, isa.OpST: 2, isa.OpLDB: 2, isa.OpSTB: 2,
	isa.OpADD: 1, isa.OpSUB: 1, isa.OpAND: 1, isa.OpOR: 1, isa.OpXOR: 1,
	isa.OpSHL: 1, isa.OpSHR: 1, isa.OpADDI: 1, isa.OpMUL: 3,
	isa.OpCMP: 1, isa.OpCMPI: 1,
	isa.OpJMP: 2, isa.OpBEQ: 1, isa.OpBNE: 1, isa.OpBLT: 1, isa.OpBGE: 1,
	isa.OpBLTU: 1, isa.OpBGEU: 1, isa.OpJR: 2, isa.OpCALL: 3, isa.OpCALLR: 3,
	isa.OpRET: 3, isa.OpPUSH: 2, isa.OpPOP: 2, isa.OpSVC: 10, isa.OpRDCYC: 1,
}

// branchTakenExtra is charged on top of the base cost when a conditional
// branch is taken (pipeline refill).
const branchTakenExtra = 1

// BranchTakenExtra exports the taken-branch surcharge for the static
// WCET engine (internal/sverify), which must charge exactly what the
// interpreter charges: conditional branches pay it when taken, and the
// unconditional JMP always pays it (the pipeline refills either way).
const BranchTakenExtra = branchTakenExtra

// InstructionCost returns the cycle cost of executing op (taken-branch
// surcharge excluded).
func InstructionCost(op isa.Op) uint64 {
	if int(op) < len(instCost) && instCost[op] != 0 {
		return instCost[op]
	}
	return 1
}

// Interrupt path — Table 2 ("saving the context of a secure task") and
// the hardware part both paths share. On interrupt the exception engine
// saves EIP and EFLAGS to the interrupted task's stack; the remaining
// registers are saved in software: by the plain interrupt handler for
// normal tasks, or by the trusted Int Mux for secure tasks, which
// additionally wipes the registers before branching to the untrusted
// handler.
const (
	// CostHWException is the hardware exception-engine cost of pushing
	// EIP and EFLAGS and vectoring through the IDT. It is charged on
	// every interrupt in both configurations, so it cancels out of the
	// paper's overhead columns.
	CostHWException = 12

	// CostStoreContext: software save of the 8 GPRs to the task stack
	// (Table 2 "Store context" = 38).
	CostStoreContext = 38

	// CostWipeRegisters: Int Mux clears the GPRs so the untrusted
	// handler learns nothing (Table 2 "Wipe registers" = 16).
	CostWipeRegisters = 16

	// CostSecureBranch: Int Mux dispatch to the handler selected by the
	// protected IDT (Table 2 "Branch" = 41).
	CostSecureBranch = 41
)

// Context restore — Table 3 ("restoring the context of a secure task").
const (
	// CostRestoreBranch: branching into the secure task's entry routine
	// (Table 3 "Branch" = 106; includes the EA-MPU entry-point check
	// and the restart-vs-message dispatch described in §4).
	CostRestoreBranch = 106

	// CostEntryDispatch: the entry routine's check of the CPU register
	// that distinguishes (re)start from message delivery. Together with
	// CostRestoreBranch and CostRestoreContext this composes Table 3's
	// overall 384 (= 106 + 254 + 24).
	CostEntryDispatch = 24

	// CostRestoreContext: loading the 8 GPRs plus EIP/EFLAGS back
	// (Table 3 "Restore" = 254; both configurations pay it).
	CostRestoreContext = 254
)

// Relocation — Table 5. Total cost = CostRelocScan + one per-fixup cost
// per relocation entry, depending on its kind. Calibration: n=0 → 37;
// per-entry ≈ 636–696 gives the paper's min 673 / avg ≈ 703 at n=1 and
// the linear growth of the remaining rows.
const (
	CostRelocScan        = 37  // walking the (possibly empty) table
	CostRelocWord        = 636 // bare data word fixup
	CostRelocImm32       = 660 // LDI32 immediate fixup
	CostRelocImm32Addend = 696 // LDI32 immediate with addend re-derivation
)

// EA-MPU driver — Table 6. Finding the first free slot is linear in the
// slot position (76, 95, …, 399 for positions 1, 2, …, 18 → 57 + 19·p);
// the policy check scans all 18 slots at a flat cost; writing the rule
// is constant.
const (
	CostSlotScanBase = 57
	CostSlotScanPer  = 19
	CostPolicyCheck  = 824
	CostWriteRule    = 225
)

// RTM measurement — Table 7. T ≈ init + blocks·perBlock for the hash
// plus a relocation-reversal term fixed + addrs·perAddr. Calibration
// fits Table 7's block rows exactly at 2 blocks (12,200) and within
// ~1 % elsewhere.
const (
	CostMeasureInit     = 4322 // header hash + state setup
	CostMeasurePerBlock = 3936 // one SHA-1 compression of a 64-byte block
	CostRevertFixed     = 114  // reversal bookkeeping (Table 7, 0 addresses)
	CostRevertPerAddr   = 518  // reverting one fixup for hashing
)

// Secure IPC — §6 "Secure IPC". The proxy's 1,208 cycles decompose into
// obtaining the interrupt origin, two registry lookups (sender identity
// and receiver location; linear in the number of loaded tasks, constants
// below reproduce the paper's figure at its two-task benchmark), copying
// the message registers and writing m‖idS into the receiver.
const (
	CostIPCOrigin        = 86  // read interrupt origin from hardware
	CostIPCLookupBase    = 120 // registry probe setup (×2: sender, receiver)
	CostIPCLookupPerTask = 37  // per registry entry scanned
	CostIPCCopyPerWord   = 56  // copy one message word into receiver memory
	CostIPCWriteSender   = 112 // append idS (two words) + length
	CostIPCDispatch      = 454 // select sync/async path, schedule receiver
	// Canonical decomposition at the paper's benchmark point (two loaded
	// tasks, three payload words): 86 + 2·(120+2·37) + 3·56 + 112 + 454
	// = 1,208 — the proxy cost of §6.
	// CostIPCEntryRoutine is the receiver-side entry routine processing
	// the delivered message (§6: 116 cycles).
	CostIPCEntryRoutine = 116
)

// Task loading (Table 4). The dominant cost of creating *any* task is
// streaming the image out of the (slow, memory-mapped) flash store into
// RAM: the paper's normal-task creation of 208,808 cycles for a 3,962-
// byte image implies ≈ 200 cycles per 32-bit word of image transferred.
const (
	// CostFlashReadWord is the cost of reading one 32-bit word from the
	// flash image store.
	CostFlashReadWord = 180

	// CostCopyLoopWord is the per-word loop overhead (address update,
	// RAM write) of the loader's copy loop.
	CostCopyLoopWord = 20

	// CostAllocBase/PerRegion: first-fit scan of the free list.
	CostAllocBase      = 260
	CostAllocPerRegion = 40

	// CostStackPrepWord: preparing one word of the initial stack frame
	// (the faked "interrupted before first run" frame, §4).
	CostStackPrepWord = 4

	// CostTCBInit: allocating and initializing the task control block.
	CostTCBInit = 980

	// CostSchedulerAdd: inserting the task into the ready lists and
	// notifying the scheduler.
	CostSchedulerAdd = 620

	// CostZeroWord: zeroing one word of BSS.
	CostZeroWord = 2

	// CostVerifyBase/CostVerifyPerWord: the opt-in static pre-load
	// verifier (linear decode sweep, CFG traversal, abstract
	// interpretation) runs in software on the platform before
	// measurement. Not a paper table — the gate is an extension; the
	// costs are sized like the relocation machinery it sits next to
	// (setup comparable to a registry probe, a few decode/check loop
	// iterations per 32-bit word of text).
	CostVerifyBase    = 540
	CostVerifyPerWord = 24

	// CostBoundsBase/CostBoundsPerWord: the resource-bound admission
	// pass layered on the verifier — call-graph construction, loop-bound
	// inference and the longest-path sweeps. Charged on top of the
	// verify costs only when bounds admission is armed; sized below the
	// verifier itself (it reuses the already-decoded CFG and converged
	// abstract states, so the extra work is the graph passes alone).
	CostBoundsBase    = 380
	CostBoundsPerWord = 14
)

// Scheduler / kernel primitives. These keep the kernel's primitives
// bounded (requirement (3) of the real-time feature list in §4).
const (
	CostSchedulerPick  = 160 // highest-priority ready task selection
	CostTick           = 90  // tick bookkeeping (time slice, delays)
	CostSyscallEntry   = 64  // SVC decode and dispatch
	CostTaskExitClean  = 840 // removing a task from scheduler structures
	CostSuspendResume  = 210 // suspend or resume bookkeeping
	CostRegistryUpdate = 130 // RTM identity-registry insert/remove
)

// Secure storage (built on secure IPC + HMAC; §3 "Secure storage").
const (
	CostStorageKeyDerive = 9200 // Kt = HMAC(idt | Kp): two SHA-1 passes
	CostStoragePerBlock  = 4100 // encrypt-and-MAC one 64-byte block
	CostStorageLookup    = 240  // slot lookup in the storage index
)

// Secure update service. HMAC signature verification dominates, so the
// per-block rate matches the measurement engine (one SHA-1 compression
// per 64-byte block); the fixed parts cover manifest parsing, the
// monotonic-counter compare, and the swap bookkeeping around the
// suspend/resume + registry costs charged by the primitives themselves.
const (
	CostUpdateVerifyBase     = 860  // manifest parse + header checks
	CostUpdateVerifyPerBlock = 3936 // HMAC/digest over one 64-byte block
	CostUpdateCounter        = 410  // monotonic-counter compare + encode
	CostUpdateSwap           = 750  // swap bookkeeping around the task exchange
)

// CyclesToNanos converts a cycle count to nanoseconds at ClockHz.
func CyclesToNanos(cycles uint64) uint64 {
	return cycles * 1_000_000_000 / ClockHz
}

// MillisToCycles converts milliseconds of wall-clock time at ClockHz to
// cycles (used by the use-case harness: 27.8 ms ≈ 1,334,400 cycles).
func MillisToCycles(ms float64) uint64 {
	return uint64(ms * ClockHz / 1000)
}
