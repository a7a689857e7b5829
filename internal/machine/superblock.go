package machine

import (
	"encoding/binary"

	"repro/internal/cfg"
	"repro/internal/eampu"
	"repro/internal/isa"
)

// The superblock compiler: threaded-code execution for Run.
//
// On first execution of a basic block, compileBlock walks the
// straight-line instruction run starting at the dispatch PC — the same
// block discipline internal/sverify uses, over the loaded bytes instead
// of the image — and fuses it into a chain of Go closures. Cycle costs
// are summed at compile time and charged in one add; a block-local
// abstract interpretation (the shared internal/cfg lattice) proves
// accesses constant so their bounds/alignment/EA-MPU checks hoist to a
// single compile-time probe; everything else keeps a per-op pre-check
// that can refuse, sending execution back to the interpreter.
//
// Cycle-exactness is the contract, inherited from fastpath.go and
// enforced the same way (reference/production lockstep in
// superblock_test.go, trace-check, chaos): compilation may only
// short-circuit host work. The rules that keep it:
//
//   - A compiled op never faults. Ops whose access can fault at runtime
//     carry a side-effect-free pre-check; if it cannot prove the access
//     allowed, the block bails *before* the op and the interpreter
//     reproduces the exact fault (same PC, same cycle, same counters).
//     Ops provably faulting at compile time simply end the block.
//   - A block is dispatched only when neither the cycle budget nor the
//     interrupt-poll watermark can trip at any instruction boundary
//     inside it (guards on maxCost), so the bulk cycle charge cannot
//     skip a poll or a budget stop the interpreter would have taken.
//     Blocks contain no MMIO, SVC or HLT, so no device, interrupt or
//     kernel state can change mid-block.
//   - Blocks never cross an exec-verdict span boundary, and the entry
//     check is exactly the interpreter's fetch check; interior fetch
//     checks are subsumed by the span, as on the fast path.
//   - Invalidation is the fast path's generation discipline: an EA-MPU
//     reconfiguration bumps the generation via syncMPUGen, and a write
//     into any RAM granule holding compiled code bumps it via
//     noteRAMWrite. A store inside a block re-checks the generation and
//     splits the block after the store, so self-modifying code sees its
//     own writes on the very next instruction.
//
// Step never uses superblocks; only Run dispatches them, and only when
// Machine.FastPath selects the production engine, so single-stepping
// debuggers, the lockstep rigs that drive Step and the reference oracle
// get pure interpretation.

const (
	// sbBits sizes the direct-mapped compiled-block table.
	sbBits = 10
	sbSize = 1 << sbBits

	// sbMaxOps caps the instructions fused into one block: long enough
	// to swallow any straight-line run the paper's tasks contain, short
	// enough that maxCost stays far below typical budgets and poll
	// periods (a capped block chains into the next one).
	sbMaxOps = 64

	// sbPageBits is the write-protection granule for compiled code
	// (256 bytes): sbPages records, per granule, the generation whose
	// compiled blocks cover it.
	sbPageBits = 8
)

// sbStatus is a compiled op's outcome.
type sbStatus uint8

const (
	sbNext   sbStatus = iota // fall through to the next fused op
	sbFall                   // terminator, branch not taken (eip set)
	sbTaken                  // terminator, branch taken (eip set, +branchTakenExtra)
	sbBranch                 // terminator, unconditional transfer (eip set)
)

// sbOp is one fused instruction. pre, when set, validates the op's
// memory access without side effects visible to the guest (it may fill
// decision caches and stashes the validated RAM offset in m.sbOff);
// returning false bails to the interpreter before the op. fn executes
// the op and cannot fail.
type sbOp struct {
	pc     uint32
	cost   uint32
	writes bool
	term   bool
	in     isa.Instruction
	pre    func(m *Machine) bool
	fn     func(m *Machine) sbStatus
}

// superblock is one compiled basic block.
type superblock struct {
	start   uint32 // PC of the first instruction
	end     uint32 // last byte of the last fused instruction
	nextPC  uint32 // resume PC when the block ends without a terminator
	maxCost uint64 // upper bound on cycles one dispatch can charge
	ops     []sbOp
}

// sbEntry is one gen-tagged slot of the compiled-block table. A block
// with no ops is a negative entry: the PC starts with an instruction
// the compiler refuses (SVC, HLT, RDCYC, a faulting access), and every
// dispatch falls back without recompiling. seen counts dispatches
// before compilation (the warm-up gate).
type sbEntry struct {
	pc   uint32
	gen  uint32
	seen uint32
	sb   *superblock
}

// sbCompileThreshold is the warm-up gate: a PC is interpreted this many
// times within a generation before its block is compiled. Compilation
// costs tens of interpreted instructions, and the platform's context
// switches reconfigure the EA-MPU — bumping the generation and flushing
// the block cache — every quantum; compiling on first sight makes
// switch-heavy, short-quantum workloads *slower* than the plain fast
// path (each block recompiles once per quantum and runs once). Sixteen
// dispatches-per-generation is enough warm-up that only genuinely hot
// loops pay the compiler, leaving compute-bound kernels (which re-reach
// the threshold within microseconds of each flush) at full superblock
// throughput. The gate narrows but does not close the gap on the
// switch-heavy Table 1 use case: measured on a 2-vCPU host, caches
// without superblocks ran it in ~700 µs with 129 allocations against
// ~920 µs with ~1,140 allocations here, while the compute kernel ran
// ~2.8x faster here (4.4 ms against 12.3 ms). Keying compiled blocks on
// the EA-MPU configuration, so per-task blocks survive the round-robin,
// is the open fix tracked in ROADMAP.md.
const sbCompileThreshold = 16

// stepBlock tries to execute one compiled block at EIP. ok=false means
// the interpreter must run this instruction; machine state is untouched
// in that case.
func (m *Machine) stepBlock(start, budget uint64) (uint64, bool) {
	m.syncMPUGen()
	pc := m.eip
	if m.sbcache == nil {
		m.sbcache = make([]sbEntry, sbSize)
	}
	e := &m.sbcache[(pc>>2)*hashMul>>(32-sbBits)]
	if e.gen != m.gen || e.pc != pc {
		*e = sbEntry{pc: pc, gen: m.gen, seen: 1}
		m.sbFallbacks++
		return 0, false
	}
	if e.sb == nil {
		if e.seen < sbCompileThreshold {
			e.seen++
			m.sbFallbacks++
			return 0, false
		}
		e.sb = m.compileBlock(pc)
	}
	sb := e.sb
	if len(sb.ops) == 0 {
		m.sbFallbacks++
		return 0, false
	}
	// Neither the poll watermark nor the budget may trip at any
	// boundary inside the block; otherwise the interpreter must run so
	// its per-instruction checks fire at the exact cycle the reference
	// engine's would. pollAt==0 (poll now / unscheduled source) always
	// falls back, and the interpreter's Charge re-establishes it.
	if m.cycles+sb.maxCost >= m.pollAt || m.cycles-start+sb.maxCost >= budget {
		m.sbFallbacks++
		return 0, false
	}
	// Entry fetch check, exactly as fetchFast: span-cache hit or a full
	// (non-counting) EA-MPU probe. A denied fetch falls back so the
	// interpreter raises the identical fault, violation count included.
	ex := &m.exec[(pc>>8)*hashMul>>(32-execBits)]
	if !(ex.gen == m.gen && ex.lo <= pc && pc <= ex.hi && ex.lo <= m.lastPC && m.lastPC <= ex.hi) {
		if !m.MPU.ProbeExec(m.lastPC, pc, !m.branched) {
			m.sbFallbacks++
			return 0, false
		}
		lo, hi := m.MPU.ExecSpan(pc)
		*ex = execSpan{gen: m.gen, lo: lo, hi: hi}
		m.execSpanFills++
	}
	// The whole block must lie inside the constant-verdict span; then
	// every interior sequential fetch is allowed, as on the fast path.
	// (compileBlock clamps blocks to the span, so this only fails when
	// the span cache holds a different, narrower span for this slot.)
	if ex.lo > sb.start || sb.end > ex.hi {
		m.sbFallbacks++
		return 0, false
	}
	m.sbHits++
	return m.execBlock(sb, e.gen)
}

// execBlock runs a compiled block. When an instruction-trace hook is
// attached it downshifts to per-op bookkeeping so the hook observes the
// same (pc, insn, state) sequence Step would give it; otherwise retire
// and cycle counts are applied in bulk at block exit (the dispatch
// guards guarantee no poll or budget boundary lies inside).
func (m *Machine) execBlock(sb *superblock, gen uint32) (uint64, bool) {
	hooked := m.OnStep != nil
	ops := sb.ops
	var n, cost uint64
	for i := range ops {
		op := &ops[i]
		if op.pre != nil && !op.pre(m) {
			m.sbBails++
			if i == 0 {
				return 0, false // nothing happened; interpreter takes over
			}
			prev := ops[i-1].pc
			m.eip = op.pc
			m.lastPC = prev
			m.execPC = prev
			m.branched = false
			if !hooked {
				m.insnRetired += n
				m.cycles += cost
			}
			return n, true
		}
		if hooked {
			m.eip = op.pc
			m.insnRetired++
			if m.OnStep != nil { // the hook may detach itself mid-run
				m.OnStep(op.pc, op.in)
			}
			m.execPC = op.pc
			m.lastPC = op.pc
			m.branched = false
		}
		st := op.fn(m)
		c := uint64(op.cost)
		if st == sbTaken {
			c += branchTakenExtra
		}
		n++
		if hooked {
			m.cycles += c
		} else {
			cost += c
		}
		if st == sbNext {
			if op.writes && m.gen != gen {
				// The store landed in compiled code (self-modifying):
				// every op after it is stale. Split the block here; the
				// interpreter refetches the next instruction from the
				// freshly written bytes.
				m.sbBails++
				m.eip = op.pc + op.in.Width()
				m.lastPC = op.pc
				m.execPC = op.pc
				m.branched = false
				if !hooked {
					m.insnRetired += n
					m.cycles += cost
				}
				return n, true
			}
			continue
		}
		// Terminator: fn already set eip to the target.
		m.lastPC = op.pc
		m.execPC = op.pc
		m.branched = st != sbFall
		if !hooked {
			m.insnRetired += n
			m.cycles += cost
		}
		return n, true
	}
	// Capped block: chain into the next dispatch at the fall-through PC.
	last := ops[len(ops)-1].pc
	m.eip = sb.nextPC
	m.lastPC = last
	m.execPC = last
	m.branched = false
	if !hooked {
		m.insnRetired += n
		m.cycles += cost
	}
	return n, true
}

// compileBlock fuses the basic block starting at start. It stops before
// any instruction it cannot execute exactly (SVC/HLT/RDCYC, provably
// faulting accesses, undecodable words) and after any terminator; a
// zero-op result is a negative entry meaning "always interpret here".
func (m *Machine) compileBlock(start uint32) *superblock {
	m.sbCompiles++
	sb := &superblock{start: start, end: start, nextPC: start}
	// Never fuse across an exec-verdict boundary: the dispatch span
	// check could then never pass, and entry enforcement on the next
	// region must fire per-instruction.
	_, spanHi := m.MPU.ExecSpan(start)
	var regs cfg.Regs
	pc := start
	for len(sb.ops) < sbMaxOps {
		in, fault := m.decodeAt(pc)
		if fault != nil {
			break
		}
		w := in.Width()
		if pc+w-1 > spanHi {
			break
		}
		op := sbOp{pc: pc, in: in, cost: uint32(InstructionCost(in.Op))}
		if !m.compileOp(&op, in, pc, pc+w, &regs) {
			break
		}
		sb.ops = append(sb.ops, op)
		sb.maxCost += uint64(op.cost)
		sb.end = pc + w - 1
		sb.nextPC = pc + w
		pc += w
		if op.term {
			// Conservative: assume the branch is taken when bounding.
			sb.maxCost += branchTakenExtra
			break
		}
		cfg.Transfer(in, &regs, false)
	}
	if len(sb.ops) > 0 {
		m.markCompiled(sb.start, sb.end)
	}
	return sb
}

// markCompiled records that [lo, hi] holds compiled code this
// generation, so noteRAMWrite can invalidate on overlap.
func (m *Machine) markCompiled(lo, hi uint32) {
	if m.sbPages == nil {
		m.sbPages = make([]uint32, (len(m.ram)+(1<<sbPageBits)-1)>>sbPageBits)
	}
	if lo < m.sbLo {
		m.sbLo = lo
	}
	if hi > m.sbHi {
		m.sbHi = hi
	}
	for g := (lo - RAMBase) >> sbPageBits; g <= (hi-RAMBase)>>sbPageBits; g++ {
		if int(g) < len(m.sbPages) {
			m.sbPages[g] = m.gen
		}
	}
}

func sbNop(*Machine) sbStatus { return sbNext }

// compileOp lowers one instruction into op. Returning false ends the
// block before the instruction.
func (m *Machine) compileOp(op *sbOp, in isa.Instruction, pc, next uint32, regs *cfg.Regs) bool {
	switch in.Op {
	case isa.OpNOP:
		op.fn = sbNop
	case isa.OpMOV:
		rd, rs := in.Rd, in.Rs
		op.fn = func(m *Machine) sbStatus { m.regs[rd] = m.regs[rs]; return sbNext }
	case isa.OpLDI:
		rd, v := in.Rd, uint32(int32(in.Imm))
		op.fn = func(m *Machine) sbStatus { m.regs[rd] = v; return sbNext }
	case isa.OpLUI:
		rd, v := in.Rd, uint32(uint16(in.Imm))<<16
		op.fn = func(m *Machine) sbStatus { m.regs[rd] = v; return sbNext }
	case isa.OpLDI32:
		rd, v := in.Rd, in.Imm32
		op.fn = func(m *Machine) sbStatus { m.regs[rd] = v; return sbNext }
	case isa.OpADD:
		rd, rs := in.Rd, in.Rs
		op.fn = func(m *Machine) sbStatus { m.regs[rd] += m.regs[rs]; return sbNext }
	case isa.OpSUB:
		rd, rs := in.Rd, in.Rs
		op.fn = func(m *Machine) sbStatus { m.regs[rd] -= m.regs[rs]; return sbNext }
	case isa.OpAND:
		rd, rs := in.Rd, in.Rs
		op.fn = func(m *Machine) sbStatus { m.regs[rd] &= m.regs[rs]; return sbNext }
	case isa.OpOR:
		rd, rs := in.Rd, in.Rs
		op.fn = func(m *Machine) sbStatus { m.regs[rd] |= m.regs[rs]; return sbNext }
	case isa.OpXOR:
		rd, rs := in.Rd, in.Rs
		op.fn = func(m *Machine) sbStatus { m.regs[rd] ^= m.regs[rs]; return sbNext }
	case isa.OpSHL:
		rd, rs := in.Rd, in.Rs
		op.fn = func(m *Machine) sbStatus { m.regs[rd] <<= m.regs[rs] & 31; return sbNext }
	case isa.OpSHR:
		rd, rs := in.Rd, in.Rs
		op.fn = func(m *Machine) sbStatus { m.regs[rd] >>= m.regs[rs] & 31; return sbNext }
	case isa.OpADDI:
		rd, v := in.Rd, uint32(int32(in.Imm))
		op.fn = func(m *Machine) sbStatus { m.regs[rd] += v; return sbNext }
	case isa.OpMUL:
		rd, rs := in.Rd, in.Rs
		op.fn = func(m *Machine) sbStatus { m.regs[rd] *= m.regs[rs]; return sbNext }
	case isa.OpCMP:
		rd, rs := in.Rd, in.Rs
		op.fn = func(m *Machine) sbStatus { m.setFlags(m.regs[rd], m.regs[rs]); return sbNext }
	case isa.OpCMPI:
		rd, v := in.Rd, uint32(int32(in.Imm))
		op.fn = func(m *Machine) sbStatus { m.setFlags(m.regs[rd], v); return sbNext }
	case isa.OpLD:
		return m.compileLoad(op, in, pc, regs, 4)
	case isa.OpLDB:
		return m.compileLoad(op, in, pc, regs, 1)
	case isa.OpST:
		return m.compileStore(op, in, pc, regs, 4)
	case isa.OpSTB:
		return m.compileStore(op, in, pc, regs, 1)
	case isa.OpJMP:
		t := next + uint32(int32(in.Imm))*4
		op.term = true
		op.fn = func(m *Machine) sbStatus { m.eip = t; return sbTaken }
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		var mask uint32
		var want bool
		switch in.Op {
		case isa.OpBEQ:
			mask, want = isa.FlagZ, true
		case isa.OpBNE:
			mask, want = isa.FlagZ, false
		case isa.OpBLT:
			mask, want = isa.FlagN, true
		case isa.OpBGE:
			mask, want = isa.FlagN, false
		case isa.OpBLTU:
			mask, want = isa.FlagC, true
		case isa.OpBGEU:
			mask, want = isa.FlagC, false
		}
		t, fall := next+uint32(int32(in.Imm))*4, next
		op.term = true
		op.fn = func(m *Machine) sbStatus {
			if (m.eflags&mask != 0) == want {
				m.eip = t
				return sbTaken
			}
			m.eip = fall
			return sbFall
		}
	case isa.OpJR:
		rs := in.Rs
		op.term = true
		op.fn = func(m *Machine) sbStatus { m.eip = m.regs[rs]; return sbBranch }
	case isa.OpCALL, isa.OpCALLR:
		rs := in.Rs
		t := next + uint32(int32(in.Imm))*4
		indirect := in.Op == isa.OpCALLR
		op.term = true
		op.writes = true
		op.pre = func(m *Machine) bool {
			return m.sbCheckData(eampu.AccessWrite, pc, m.regs[isa.SP]-4, 4)
		}
		op.fn = func(m *Machine) sbStatus {
			off := m.sbOff
			m.noteRAMWrite(int(off), 4)
			binary.LittleEndian.PutUint32(m.ram[off:], next)
			m.regs[isa.SP] -= 4
			if indirect {
				m.eip = m.regs[rs]
			} else {
				m.eip = t
			}
			return sbBranch
		}
	case isa.OpRET:
		op.term = true
		op.pre = func(m *Machine) bool {
			return m.sbCheckData(eampu.AccessRead, pc, m.regs[isa.SP], 4)
		}
		op.fn = func(m *Machine) sbStatus {
			m.eip = binary.LittleEndian.Uint32(m.ram[m.sbOff:])
			m.regs[isa.SP] += 4
			return sbBranch
		}
	case isa.OpPUSH:
		rs := in.Rs
		op.writes = true
		op.pre = func(m *Machine) bool {
			return m.sbCheckData(eampu.AccessWrite, pc, m.regs[isa.SP]-4, 4)
		}
		op.fn = func(m *Machine) sbStatus {
			off := m.sbOff
			m.noteRAMWrite(int(off), 4)
			binary.LittleEndian.PutUint32(m.ram[off:], m.regs[rs])
			m.regs[isa.SP] -= 4
			return sbNext
		}
	case isa.OpPOP:
		rd := in.Rd
		op.pre = func(m *Machine) bool {
			return m.sbCheckData(eampu.AccessRead, pc, m.regs[isa.SP], 4)
		}
		op.fn = func(m *Machine) sbStatus {
			m.regs[rd] = binary.LittleEndian.Uint32(m.ram[m.sbOff:])
			m.regs[isa.SP] += 4
			return sbNext
		}
	default:
		// SVC, HLT, RDCYC: traps and cycle reads need the interpreter's
		// per-instruction charging and stop handling.
		return false
	}
	return true
}

// compileLoad lowers LD/LDB. A provably constant in-RAM address hoists
// all checks to compile time; otherwise the op keeps a runtime
// pre-check through the decision cache.
func (m *Machine) compileLoad(op *sbOp, in isa.Instruction, pc uint32, regs *cfg.Regs, size uint32) bool {
	rd, rs := in.Rd, in.Rs
	imm := uint32(int32(in.Imm))
	if base := regs[rs]; base.IsConst() {
		off, ok := m.sbConstAccess(pc, eampu.AccessRead, base.V+imm, size)
		if !ok {
			return false
		}
		if size == 4 {
			op.fn = func(m *Machine) sbStatus {
				m.regs[rd] = binary.LittleEndian.Uint32(m.ram[off:])
				return sbNext
			}
		} else {
			op.fn = func(m *Machine) sbStatus {
				m.regs[rd] = uint32(m.ram[off])
				return sbNext
			}
		}
		return true
	}
	if size == 4 {
		op.pre = func(m *Machine) bool {
			return m.sbCheckData(eampu.AccessRead, pc, m.regs[rs]+imm, 4)
		}
		op.fn = func(m *Machine) sbStatus {
			m.regs[rd] = binary.LittleEndian.Uint32(m.ram[m.sbOff:])
			return sbNext
		}
	} else {
		op.pre = func(m *Machine) bool {
			return m.sbCheckData(eampu.AccessRead, pc, m.regs[rs]+imm, 1)
		}
		op.fn = func(m *Machine) sbStatus {
			m.regs[rd] = uint32(m.ram[m.sbOff])
			return sbNext
		}
	}
	return true
}

// compileStore lowers ST/STB (the base register is Rd, the value Rs).
func (m *Machine) compileStore(op *sbOp, in isa.Instruction, pc uint32, regs *cfg.Regs, size uint32) bool {
	rd, rs := in.Rd, in.Rs
	imm := uint32(int32(in.Imm))
	op.writes = true
	if base := regs[rd]; base.IsConst() {
		off, ok := m.sbConstAccess(pc, eampu.AccessWrite, base.V+imm, size)
		if !ok {
			return false
		}
		if size == 4 {
			op.fn = func(m *Machine) sbStatus {
				m.noteRAMWrite(int(off), 4)
				binary.LittleEndian.PutUint32(m.ram[off:], m.regs[rs])
				return sbNext
			}
		} else {
			op.fn = func(m *Machine) sbStatus {
				m.noteRAMWrite(int(off), 1)
				m.ram[off] = byte(m.regs[rs])
				return sbNext
			}
		}
		return true
	}
	if size == 4 {
		op.pre = func(m *Machine) bool {
			return m.sbCheckData(eampu.AccessWrite, pc, m.regs[rd]+imm, 4)
		}
		op.fn = func(m *Machine) sbStatus {
			off := m.sbOff
			m.noteRAMWrite(int(off), 4)
			binary.LittleEndian.PutUint32(m.ram[off:], m.regs[rs])
			return sbNext
		}
	} else {
		op.pre = func(m *Machine) bool {
			return m.sbCheckData(eampu.AccessWrite, pc, m.regs[rd]+imm, 1)
		}
		op.fn = func(m *Machine) sbStatus {
			off := m.sbOff
			m.noteRAMWrite(int(off), 1)
			m.ram[off] = byte(m.regs[rs])
			return sbNext
		}
	}
	return true
}

// sbConstAccess decides at compile time whether an access at a constant
// address can be hoisted: in RAM, aligned, and allowed by the EA-MPU
// under the current generation (a non-counting probe — only accesses
// the guest performs may count violations). ok=false ends the block
// before the op so the interpreter reproduces the fault, or serves the
// MMIO access, per execution.
func (m *Machine) sbConstAccess(pc uint32, kind eampu.AccessKind, addr, size uint32) (off uint32, ok bool) {
	if addr < RAMBase || (size == 4 && addr&3 != 0) {
		return 0, false
	}
	off = addr - RAMBase
	if uint64(off)+uint64(size) > uint64(len(m.ram)) {
		return 0, false
	}
	if !m.MPU.ProbeData(pc, kind, addr, size) {
		return 0, false
	}
	return off, true
}

// sbCheckData is the runtime pre-check for non-constant addresses:
// RAM bounds, alignment, then the EA-MPU decision cache with a
// non-counting probe on miss (mirroring checkData's fill discipline).
// On success the validated RAM offset is stashed in m.sbOff.
func (m *Machine) sbCheckData(kind eampu.AccessKind, pc, addr, size uint32) bool {
	if addr < RAMBase || (size == 4 && addr&3 != 0) {
		return false
	}
	off := addr - RAMBase
	if uint64(off)+uint64(size) > uint64(len(m.ram)) {
		return false
	}
	last := addr + size - 1
	e := &m.dcache[kind][(pc^addr>>8)*hashMul>>(32-dcacheBits)]
	if e.gen == m.gen &&
		e.codeLo <= pc && pc <= e.codeHi &&
		e.dataLo <= addr && last <= e.dataHi {
		m.sbOff = off
		return true
	}
	if !m.MPU.ProbeData(pc, kind, addr, size) {
		return false
	}
	m.dataSpanFills++
	dLo, dHi := m.MPU.DataSpan(addr)
	if last >= dLo && last <= dHi {
		cLo, cHi := m.MPU.CodeSpan(pc)
		*e = dataSpan{gen: m.gen, codeLo: cLo, codeHi: cHi, dataLo: dLo, dataHi: dHi}
	}
	m.sbOff = off
	return true
}
