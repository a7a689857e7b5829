package main

import (
	"fmt"
	"time"

	"repro/internal/eampu"
	"repro/internal/isa"
	"repro/internal/machine"
)

// The compute kernel: a tight loop of ALU ops, pointer and byte
// traffic, calls and branches under an enforcing EA-MPU. It is a copy
// of the program benchlab uses for its engine comparison, kept here so
// the benchmark stages it through machine.New and the MPU alone and
// never through an engine-selection knob.

const (
	kernelIters = 20_000
	kernelBase  = 0x2000
	kernelData  = 0x9000
	kernelStack = 0x8000
	kernelEntry = kernelBase + 4*4
)

func kernelProgram() *isa.Program {
	var p isa.Program
	// fn at word 0: r0 = r0*2 + 3; ret
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R4, Imm: 2})
	p.Emit(isa.Instruction{Op: isa.OpMUL, Rd: isa.R0, Rs: isa.R4})
	p.Emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R0, Imm: 3})
	p.Emit(isa.Instruction{Op: isa.OpRET})
	// entry at word 4
	p.Emit(isa.Instruction{Op: isa.OpLDI32, Rd: isa.R1, Imm32: kernelIters})
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R2, Imm: 0})
	p.Emit(isa.Instruction{Op: isa.OpLDI32, Rd: isa.R3, Imm32: kernelData})
	// loop at word 9
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

// kernelDigest is the architectural outcome of one pass.
type kernelDigest struct {
	Sum          uint32
	Cycles       uint64
	Instructions uint64
	Violations   uint64
}

// newKernelMachine stages the kernel on a fresh machine with the
// default engine and one enforcing EA-MPU rule covering its text, data
// and stack.
func newKernelMachine() (*machine.Machine, error) {
	m := machine.New(1 << 20)
	if err := m.LoadBytes(kernelBase, kernelProgram().Bytes()); err != nil {
		return nil, err
	}
	if err := m.MPU.Install(0, eampu.Rule{
		Code:  eampu.Region{Start: kernelBase, Size: 0x1000},
		Data:  eampu.Region{Start: 0x4000, Size: 0x6000},
		Perm:  eampu.PermRW,
		Owner: 1,
	}); err != nil {
		return nil, err
	}
	m.MPU.Enable()
	return m, nil
}

// kernelWarmup is how many passes each set-up runs, so the measured
// passes find the decode and superblock caches filled.
const kernelWarmup = 5

func checkKernel(d kernelDigest) error {
	if d != kernelGolden {
		return fmt.Errorf("kernel digest %+v differs from golden %+v", d, kernelGolden)
	}
	return nil
}

// stageKernel builds a kernel machine and warms it up.
func stageKernel() (*machine.Machine, error) {
	m, err := newKernelMachine()
	if err != nil {
		return nil, err
	}
	for i := 0; i < kernelWarmup; i++ {
		d, err := runKernelPass(m)
		if err == nil {
			err = checkKernel(d)
		}
		if err != nil {
			m.Release()
			return nil, err
		}
	}
	return m, nil
}

// setupKernel runs the set-ups and returns the last staged machine.
func setupKernel(r *runState) (*machine.Machine, error) {
	var m *machine.Machine
	err := r.setup(func() error {
		if m != nil {
			m.Release()
		}
		var err error
		m, err = stageKernel()
		return err
	})
	return m, err
}

func runKernel(r *runState) error {
	m, err := setupKernel(r)
	if err != nil {
		return err
	}
	defer m.Release()
	var last kernelDigest
	ops, _, alloc := r.loop(func(w *window) error {
		start := time.Now()
		d, err := runKernelPass(m)
		t := time.Since(start)
		w.lat = append(w.lat, usOf(t))
		w.busy += t
		if err != nil {
			return err
		}
		w.ops++
		last = d
		return checkKernel(d)
	})
	r.summarizeWindows()
	r.info["alloc_kb_per_op"] = float64(alloc) / 1024 / float64(ops)
	r.info["guest_mips"] = float64(last.Instructions) * r.metrics["ops_per_s"] / 1e6
	r.info["raw_guest_mips"] = float64(last.Instructions) * r.info["raw_ops_per_s"] / 1e6
	r.guest["guest_cycles_per_op"] = float64(last.Cycles)
	r.guest["guest_insns_per_op"] = float64(last.Instructions)
	r.guest["sum"] = float64(last.Sum)
	r.guest["violations"] = float64(last.Violations)
	return nil
}

// traceKernel times each pass as one machine.run span and reports the
// machine's counters per pass.
func traceKernel(r *runState) error {
	m, err := stageKernel()
	if err != nil {
		return err
	}
	defer m.Release()
	tr := r.tracer
	var op, compiles, fallbacks, bumps, misses, hitRatio []float64
	ops, elapsed, alloc := r.loop(func(*window) error {
		before := m.Stats()
		sp := tr.begin("machine.run", fmt.Sprintf("pass-%d", r.attempted), -1)
		d, err := runKernelPass(m)
		op = append(op, usOf(tr.end(sp)))
		tr.fold()
		if err != nil {
			return err
		}
		s := m.Stats()
		compiles = append(compiles, float64(s.SBCompiles-before.SBCompiles))
		fallbacks = append(fallbacks, float64(s.SBFallbacks-before.SBFallbacks))
		bumps = append(bumps, float64(s.GenBumps-before.GenBumps))
		misses = append(misses, float64(s.DecodeMisses-before.DecodeMisses))
		hitRatio = append(hitRatio, sbHitRatio(machine.Stats{
			SBHits:      s.SBHits - before.SBHits,
			SBFallbacks: s.SBFallbacks - before.SBFallbacks,
		}))
		return checkKernel(d)
	})
	r.metrics["machine.sb_compiles_per_op"] = median(compiles)
	r.metrics["machine.sb_fallbacks_per_op"] = median(fallbacks)
	r.metrics["machine.gen_bumps_per_op"] = median(bumps)
	r.metrics["machine.decode_misses_per_op"] = median(misses)
	r.metrics["machine.sb_hit_ratio"] = median(hitRatio)
	r.metrics["traced.op_us_p50"] = median(op)
	r.metrics["traced.ops_per_s"] = float64(ops) / elapsed.Seconds()
	r.metrics["go.alloc_kb_per_op"] = float64(alloc) / 1024 / float64(ops)
	return nil
}

// runKernelPass executes one pass to HLT on a reused machine.
func runKernelPass(m *machine.Machine) (kernelDigest, error) {
	c0, i0 := m.Cycles(), m.InsnRetired()
	m.SetReg(isa.SP, kernelStack)
	m.SetEIP(kernelEntry)
	for {
		res := m.Run(1 << 30)
		switch res.Reason {
		case machine.StopHalt:
			return kernelDigest{
				Sum:          m.Reg(isa.R2),
				Cycles:       m.Cycles() - c0,
				Instructions: m.InsnRetired() - i0,
				Violations:   m.MPU.Violations(),
			}, nil
		case machine.StopBudget:
		default:
			return kernelDigest{}, fmt.Errorf("kernel stopped with %v (fault %v)", res.Reason, res.Fault)
		}
	}
}
