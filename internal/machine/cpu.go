package machine

import (
	"errors"

	"repro/internal/eampu"
	"repro/internal/isa"
	"repro/internal/trace"
)

// The CPU interpreter. Run executes ISA instructions at EIP, charging
// cycles and enforcing the EA-MPU on every fetch, load and store, until
// the budget runs out, the code traps (HLT/SVC/fault) or an interrupt
// becomes deliverable.

// fetch reads and decodes the instruction at EIP, enforcing execute
// permission and entry-point rules. The fast path serves both the
// permission verdict and the decoded form from caches (fastpath.go);
// the reference path runs the full EA-MPU scan and a fresh decode.
// Either way the decode reads straight out of RAM with the window
// clamped at the end of memory — no per-fetch allocation.
func (m *Machine) fetch() (isa.Instruction, *Fault) {
	if m.FastPath {
		return m.fetchFast()
	}
	if err := m.MPU.CheckExec(m.lastPC, m.eip, !m.branched); err != nil {
		return isa.Instruction{}, &Fault{PC: m.eip, Why: "instruction fetch", Wrap: err}
	}
	return m.decodeAt(m.eip)
}

// stepFault charges the faulting instruction's cost and packages the
// fault. Out of line so Step's hot body stays closure-free.
func (m *Machine) stepFault(cost uint64, why string, err error) RunResult {
	m.Charge(cost)
	return RunResult{Reason: StopFault, Fault: &Fault{PC: m.lastPC, Why: why, Wrap: err}}
}

// setFlags computes the Z/N/C flags of a CMP between a and b.
func (m *Machine) setFlags(a, b uint32) {
	var f uint32
	if a == b {
		f |= isa.FlagZ
	}
	if int32(a) < int32(b) {
		f |= isa.FlagN
	}
	if a < b {
		f |= isa.FlagC
	}
	m.eflags = f
}

// Step executes one instruction. It returns the trap outcome: StopBudget
// means "retired normally, keep going".
func (m *Machine) Step() RunResult {
	in, fault := m.fetch()
	if fault != nil {
		return RunResult{Reason: StopFault, Fault: fault}
	}
	m.insnRetired++
	if m.OnStep != nil {
		m.OnStep(m.eip, in)
	}
	m.execPC = m.eip
	m.lastPC = m.eip
	m.branched = false
	next := m.eip + in.Width()
	cost := InstructionCost(in.Op)

	switch in.Op {
	case isa.OpNOP:
	case isa.OpHLT:
		m.Charge(cost)
		m.eip = next
		return RunResult{Reason: StopHalt, Steps: 1}
	case isa.OpMOV:
		m.regs[in.Rd] = m.regs[in.Rs]
	case isa.OpLDI:
		m.regs[in.Rd] = uint32(int32(in.Imm))
	case isa.OpLUI:
		m.regs[in.Rd] = uint32(uint16(in.Imm)) << 16
	case isa.OpLDI32:
		m.regs[in.Rd] = in.Imm32
	case isa.OpLD:
		v, err := m.Read32(m.regs[in.Rs] + uint32(int32(in.Imm)))
		if err != nil {
			return m.stepFault(cost, "load", err)
		}
		m.regs[in.Rd] = v
	case isa.OpST:
		if err := m.Write32(m.regs[in.Rd]+uint32(int32(in.Imm)), m.regs[in.Rs]); err != nil {
			return m.stepFault(cost, "store", err)
		}
	case isa.OpLDB:
		v, err := m.Read8(m.regs[in.Rs] + uint32(int32(in.Imm)))
		if err != nil {
			return m.stepFault(cost, "load byte", err)
		}
		m.regs[in.Rd] = uint32(v)
	case isa.OpSTB:
		if err := m.Write8(m.regs[in.Rd]+uint32(int32(in.Imm)), byte(m.regs[in.Rs])); err != nil {
			return m.stepFault(cost, "store byte", err)
		}
	case isa.OpADD:
		m.regs[in.Rd] += m.regs[in.Rs]
	case isa.OpSUB:
		m.regs[in.Rd] -= m.regs[in.Rs]
	case isa.OpAND:
		m.regs[in.Rd] &= m.regs[in.Rs]
	case isa.OpOR:
		m.regs[in.Rd] |= m.regs[in.Rs]
	case isa.OpXOR:
		m.regs[in.Rd] ^= m.regs[in.Rs]
	case isa.OpSHL:
		m.regs[in.Rd] <<= m.regs[in.Rs] & 31
	case isa.OpSHR:
		m.regs[in.Rd] >>= m.regs[in.Rs] & 31
	case isa.OpADDI:
		m.regs[in.Rd] += uint32(int32(in.Imm))
	case isa.OpMUL:
		m.regs[in.Rd] *= m.regs[in.Rs]
	case isa.OpCMP:
		m.setFlags(m.regs[in.Rd], m.regs[in.Rs])
	case isa.OpCMPI:
		m.setFlags(m.regs[in.Rd], uint32(int32(in.Imm)))
	case isa.OpJMP, isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		var taken bool
		switch in.Op {
		case isa.OpJMP:
			taken = true
		case isa.OpBEQ:
			taken = m.eflags&isa.FlagZ != 0
		case isa.OpBNE:
			taken = m.eflags&isa.FlagZ == 0
		case isa.OpBLT:
			taken = m.eflags&isa.FlagN != 0
		case isa.OpBGE:
			taken = m.eflags&isa.FlagN == 0
		case isa.OpBLTU:
			taken = m.eflags&isa.FlagC != 0
		case isa.OpBGEU:
			taken = m.eflags&isa.FlagC == 0
		}
		if taken {
			next = m.lastPC + in.Width() + uint32(int32(in.Imm))*4
			m.branched = true
			cost += branchTakenExtra
		}
	case isa.OpJR:
		next = m.regs[in.Rs]
		m.branched = true
	case isa.OpCALL, isa.OpCALLR:
		sp := m.regs[isa.SP] - 4
		if err := m.Write32(sp, next); err != nil {
			return m.stepFault(cost, "call push", err)
		}
		m.regs[isa.SP] = sp
		if in.Op == isa.OpCALL {
			next = m.lastPC + in.Width() + uint32(int32(in.Imm))*4
		} else {
			next = m.regs[in.Rs]
		}
		m.branched = true
	case isa.OpRET:
		v, err := m.Read32(m.regs[isa.SP])
		if err != nil {
			return m.stepFault(cost, "ret pop", err)
		}
		m.regs[isa.SP] += 4
		next = v
		m.branched = true
	case isa.OpPUSH:
		sp := m.regs[isa.SP] - 4
		if err := m.Write32(sp, m.regs[in.Rs]); err != nil {
			return m.stepFault(cost, "push", err)
		}
		m.regs[isa.SP] = sp
	case isa.OpPOP:
		v, err := m.Read32(m.regs[isa.SP])
		if err != nil {
			return m.stepFault(cost, "pop", err)
		}
		m.regs[in.Rd] = v
		m.regs[isa.SP] += 4
	case isa.OpSVC:
		m.Charge(cost)
		m.eip = next
		return RunResult{Reason: StopSVC, SVC: uint16(in.Imm), Steps: 1}
	case isa.OpRDCYC:
		m.regs[in.Rd] = uint32(m.cycles)
	}

	m.Charge(cost)
	m.eip = next
	return RunResult{Reason: StopBudget, Steps: 1}
}

// Run executes instructions until one of:
//
//   - the cycle budget is exhausted (StopBudget),
//   - the code executes HLT (StopHalt) or SVC (StopSVC; EIP points past
//     the SVC instruction),
//   - a fault occurs (StopFault; EIP still points at the faulting
//     instruction),
//   - an interrupt becomes deliverable (StopIRQ; checked before each
//     instruction so handler latency is bounded by one instruction).
//
// The budget is advisory at instruction granularity: the final
// instruction may overshoot it by its own cost.
func (m *Machine) Run(budget uint64) RunResult {
	start := m.cycles
	var steps uint64
	for {
		if m.InterruptDeliverable() {
			return RunResult{Reason: StopIRQ, Steps: steps}
		}
		if m.cycles-start >= budget {
			return RunResult{Reason: StopBudget, Steps: steps}
		}
		if m.FastPath {
			if n, ok := m.stepBlock(start, budget); ok {
				steps += n
				continue
			}
		}
		res := m.Step()
		steps += res.Steps
		if res.Reason != StopBudget {
			if res.Reason == StopFault && m.Obs != nil {
				m.emitFault(res.Fault)
			}
			res.Steps = steps
			return res
		}
	}
}

// emitFault reports a CPU fault on the observability sink. EA-MPU
// violations carry the denied access; other faults just the cause.
// Out of line so Run's loop stays small; only reached when execution
// has already stopped.
func (m *Machine) emitFault(f *Fault) {
	sub := trace.SubMachine
	attrs := []trace.Attr{trace.Hex("pc", uint64(f.PC)), trace.Str("why", f.Why)}
	var v *eampu.Violation
	if errors.As(f.Wrap, &v) {
		sub = trace.SubEAMPU
		attrs = append(attrs, trace.Str("access", v.Kind.String()), trace.Hex("addr", uint64(v.Addr)))
		if v.EntryErr {
			attrs = append(attrs, trace.Hex("entry", uint64(v.Entry)))
		}
	}
	m.Emit(sub, trace.KindViolation, "", attrs...)
}

// CheckExecEntry validates a software-initiated control transfer into a
// task (used by the kernel and IPC proxy when they branch into task
// code) without executing anything.
func (m *Machine) CheckExecEntry(from, to uint32) error {
	return m.MPU.CheckExec(from, to, false)
}
