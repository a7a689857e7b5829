package benchlab

import (
	"fmt"

	"repro/internal/eampu"
	"repro/internal/isa"
	"repro/internal/machine"
)

// The compute kernel: a compute-bound workload on which the production
// engine must match the reference oracle digest for digest. The Table 1
// use case is the platform-level anchor — secure boot, loads, IPC — but
// it retires only a few thousand guest instructions amid platform-level
// work. This kernel is the opposite: a tight loop of ALU ops, pointer
// loads/stores, byte traffic, calls and branches, executed under an
// enabled EA-MPU with realistic rules, so every fetch and access pays
// the enforcement the paper's tasks pay.

// kernelIters is the number of loop iterations per kernel pass.
const kernelIters = 20_000

// kernelBase/kernelData place the kernel's text and working set.
const (
	kernelBase  = 0x2000
	kernelData  = 0x9000
	kernelStack = 0x8000
)

// KernelResult digests the architectural outcome of one kernel pass;
// engines must agree on it exactly.
type KernelResult struct {
	Sum          uint32
	Cycles       uint64
	Instructions uint64
	Violations   uint64
	EIP          uint32
}

// KernelRun is a reusable kernel machine for one engine configuration.
// Run executes one full pass; the machine (and its warmed caches) is
// reused across passes, mirroring how a long-lived simulation behaves.
type KernelRun struct {
	m     *machine.Machine
	entry uint32
}

// kernelProgram builds the loop. Loop body (~13 instructions): a call
// into a leaf function, stack traffic, pointer word and byte traffic,
// ALU mix, and a conditional back edge.
func kernelProgram() *isa.Program {
	var p isa.Program
	// fn at word 0: r0 = r0*2 + 3; ret
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R4, Imm: 2})
	p.Emit(isa.Instruction{Op: isa.OpMUL, Rd: isa.R0, Rs: isa.R4})
	p.Emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R0, Imm: 3})
	p.Emit(isa.Instruction{Op: isa.OpRET})
	// entry at word 4
	p.Emit(isa.Instruction{Op: isa.OpLDI32, Rd: isa.R1, Imm32: kernelIters}) // counter (words 4-5)
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R2, Imm: 0})               // sum
	p.Emit(isa.Instruction{Op: isa.OpLDI32, Rd: isa.R3, Imm32: kernelData})  // buffer (words 7-8)
	// loop at word 9:
	p.Emit(isa.Instruction{Op: isa.OpMOV, Rd: isa.R0, Rs: isa.R1})
	p.Emit(isa.Instruction{Op: isa.OpPUSH, Rs: isa.R1})
	p.Emit(isa.Instruction{Op: isa.OpCALL, Imm: -12}) // fn (word 0)
	p.Emit(isa.Instruction{Op: isa.OpPOP, Rd: isa.R1})
	p.Emit(isa.Instruction{Op: isa.OpADD, Rd: isa.R2, Rs: isa.R0})
	p.Emit(isa.Instruction{Op: isa.OpST, Rd: isa.R3, Rs: isa.R2, Imm: 0})
	p.Emit(isa.Instruction{Op: isa.OpLD, Rd: isa.R5, Rs: isa.R3, Imm: 0})
	p.Emit(isa.Instruction{Op: isa.OpSTB, Rd: isa.R3, Rs: isa.R1, Imm: 8})
	p.Emit(isa.Instruction{Op: isa.OpLDB, Rd: isa.R6, Rs: isa.R3, Imm: 8})
	p.Emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R1, Imm: -1})
	p.Emit(isa.Instruction{Op: isa.OpCMPI, Rd: isa.R1, Imm: 0})
	p.Emit(isa.Instruction{Op: isa.OpBNE, Imm: -12}) // loop (word 9)
	p.Emit(isa.Instruction{Op: isa.OpHLT})
	return &p
}

// NewKernelRun stages the kernel on a fresh machine running the
// production engine (fastPath) or the reference oracle, with the EA-MPU
// enforcing a realistic rule set.
func NewKernelRun(fastPath bool) (*KernelRun, error) {
	m := machine.New(1 << 20)
	m.FastPath = fastPath
	p := kernelProgram()
	if err := m.LoadBytes(kernelBase, p.Bytes()); err != nil {
		return nil, err
	}
	// One rule covering the kernel: its text may read/write its data
	// and stack. Enabling the MPU makes every fetch and access go
	// through enforcement, as task code does on the platform.
	if err := m.MPU.Install(0, eampu.Rule{
		Code:  eampu.Region{Start: kernelBase, Size: 0x1000},
		Data:  eampu.Region{Start: 0x4000, Size: 0x6000},
		Perm:  eampu.PermRW,
		Owner: 1,
	}); err != nil {
		return nil, err
	}
	m.MPU.Enable()
	return &KernelRun{m: m, entry: kernelBase + 4*4}, nil
}

// Run executes one kernel pass to completion and returns its digest.
func (k *KernelRun) Run() (KernelResult, error) {
	m := k.m
	startCycles := m.Cycles()
	startInsns := m.InsnRetired()
	m.SetReg(isa.SP, kernelStack)
	m.SetEIP(k.entry)
	for {
		res := m.Run(1 << 30)
		switch res.Reason {
		case machine.StopHalt:
			return KernelResult{
				Sum:          m.Reg(isa.R2),
				Cycles:       m.Cycles() - startCycles,
				Instructions: m.InsnRetired() - startInsns,
				Violations:   m.MPU.Violations(),
				EIP:          m.EIP(),
			}, nil
		case machine.StopBudget:
			// keep going
		default:
			//tytan:allow errwrap — faults are reported as text in the result
			return KernelResult{}, fmt.Errorf("kernel stopped with %v (fault %v)", res.Reason, res.Fault)
		}
	}
}

// Stats exposes the underlying machine's host counters (superblock
// compile counts etc.) for reporting.
func (k *KernelRun) Stats() machine.Stats { return k.m.Stats() }
