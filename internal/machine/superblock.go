package machine

import (
	"encoding/binary"

	"repro/internal/eampu"
	"repro/internal/isa"
)

// The superblock compiler: threaded-code execution for Run.
//
// Once a dispatch PC is hot (sbCompileThreshold), compileBlock walks the
// straight-line instruction run starting at the dispatch PC — the same
// block discipline internal/sverify uses, over the loaded bytes instead
// of the image — and fuses it into a chain of Go closures. Cycle costs
// are summed at compile time and charged in one add; every load and
// store keeps a per-op pre-check that can refuse, sending execution
// back to the interpreter.
//
// The interpreter is the only EA-MPU client. A block reads the
// interpreter's caches and never asks the unit itself: it dispatches
// only on an exec-span cache hit, and a memory op runs only on a
// decision-cache hit. On any miss the interpreter decides the access,
// counts a denial and fills the cache, so the unit's violation counter
// is exactly the guest's denied accesses.
//
// Cycle-exactness is the contract, inherited from fastpath.go and
// enforced the same way (reference/production lockstep in
// superblock_test.go, and the engine axis of the internal/contract
// rows): compilation may only
// short-circuit host work. The rules that keep it:
//
//   - A compiled op never faults. Every memory op carries a
//     side-effect-free pre-check; if the caches do not already allow
//     the access, the block bails *before* the op and the interpreter
//     performs it, reproducing any fault exactly (same PC, same cycle,
//     same counters).
//   - A block is dispatched only when neither the cycle budget nor the
//     interrupt-poll watermark can trip at any instruction boundary
//     inside it (guards on maxCost), so the bulk cycle charge cannot
//     skip a poll or a budget stop the interpreter would have taken.
//     Blocks contain no MMIO, SVC or HLT, so no device, interrupt or
//     kernel state can change mid-block.
//   - Blocks never cross an exec-verdict span boundary, and the entry
//     check is exactly the interpreter's cached fetch check; interior
//     fetch checks are subsumed by the span, as on the fast path.
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
// memory access against the decision cache without side effects
// visible to the guest (it stashes the validated RAM offset in
// m.sbOff); returning false bails to the interpreter before the op. fn
// executes the op and cannot fail.
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
// times within a generation before its block is compiled. Compiling
// costs tens of interpreted instructions and a few closure allocations
// per op, so it pays only for code that then runs hundreds of times.
// The EA-MPU is keyed on the executing code region, so context switches
// do not reprogram it: the generation moves only when rules are
// installed or cleared (task load and unload, IPC shared-memory
// windows) or when a write lands in cached code. At 256 the Table 1 use
// case, 3,278 instructions per run with no PC that hot, compiles
// nothing, while the compute kernel's loop still runs compiled (hit
// ratio 0.9999). Against the earlier gate of 16, which compiled 146
// blocks for 136 hits per use-case run, the use case dropped from 1,136
// to 130 allocations and from 503 to 423 µs per run (bench/run.sh, four
// alternating 5 s runs on a 2-vCPU host), and the kernel did not move.
const sbCompileThreshold = 256

// stepBlock tries to execute one compiled block at EIP. ok=false means
// the interpreter must run this instruction; machine state is untouched
// in that case.
func (m *Machine) stepBlock(start, budget uint64) (uint64, bool) {
	m.syncMPUGen()
	pc := m.eip
	if m.sbcache == nil {
		m.sbcache = getTable[sbEntry](&sbcachePool, sbSize)
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
	// Entry fetch check: fetchFast's span-cache hit test. A miss falls
	// back so the interpreter decides the fetch, raising the identical
	// fault or filling the span. The whole block must also lie inside
	// the constant-verdict span; then every interior sequential fetch is
	// allowed, as on the fast path. (compileBlock clamps blocks to the
	// span, so this only fails when the span cache holds a different,
	// narrower span for this slot.)
	if ex, ok := m.execHit(pc); !ok || ex.lo > sb.start || sb.end > ex.hi {
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
// any instruction it cannot execute exactly (SVC/HLT/RDCYC, undecodable
// words) and after any terminator; a
// zero-op result is a negative entry meaning "always interpret here".
func (m *Machine) compileBlock(start uint32) *superblock {
	m.sbCompiles++
	sb := &superblock{start: start, end: start, nextPC: start}
	// Never fuse across an exec-verdict boundary: the dispatch span
	// check could then never pass, and entry enforcement on the next
	// region must fire per-instruction.
	_, spanHi := m.MPU.ExecSpan(start)
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
		if !compileOp(&op, in, pc, pc+w) {
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
func compileOp(op *sbOp, in isa.Instruction, pc, next uint32) bool {
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
		compileLoad(op, in, pc, 4)
	case isa.OpLDB:
		compileLoad(op, in, pc, 1)
	case isa.OpST:
		compileStore(op, in, pc, 4)
	case isa.OpSTB:
		compileStore(op, in, pc, 1)
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

// compileLoad lowers LD/LDB behind a decision-cache pre-check.
func compileLoad(op *sbOp, in isa.Instruction, pc, size uint32) {
	rd, rs := in.Rd, in.Rs
	imm := uint32(int32(in.Imm))
	op.pre = func(m *Machine) bool {
		return m.sbCheckData(eampu.AccessRead, pc, m.regs[rs]+imm, size)
	}
	if size == 4 {
		op.fn = func(m *Machine) sbStatus {
			m.regs[rd] = binary.LittleEndian.Uint32(m.ram[m.sbOff:])
			return sbNext
		}
	} else {
		op.fn = func(m *Machine) sbStatus {
			m.regs[rd] = uint32(m.ram[m.sbOff])
			return sbNext
		}
	}
}

// compileStore lowers ST/STB (the base register is Rd, the value Rs).
func compileStore(op *sbOp, in isa.Instruction, pc, size uint32) {
	rd, rs := in.Rd, in.Rs
	imm := uint32(int32(in.Imm))
	op.writes = true
	op.pre = func(m *Machine) bool {
		return m.sbCheckData(eampu.AccessWrite, pc, m.regs[rd]+imm, size)
	}
	if size == 4 {
		op.fn = func(m *Machine) sbStatus {
			off := m.sbOff
			m.noteRAMWrite(int(off), 4)
			binary.LittleEndian.PutUint32(m.ram[off:], m.regs[rs])
			return sbNext
		}
	} else {
		op.fn = func(m *Machine) sbStatus {
			off := m.sbOff
			m.noteRAMWrite(int(off), 1)
			m.ram[off] = byte(m.regs[rs])
			return sbNext
		}
	}
}

// sbCheckData is a memory op's pre-check: RAM bounds, alignment, then
// the decision cache's hit test. A miss bails, and the interpreter
// decides, counts and caches the access. On success the validated RAM
// offset is stashed in m.sbOff.
func (m *Machine) sbCheckData(kind eampu.AccessKind, pc, addr, size uint32) bool {
	if addr < RAMBase || (size == 4 && addr&3 != 0) {
		return false
	}
	off := addr - RAMBase
	if uint64(off)+uint64(size) > uint64(len(m.ram)) {
		return false
	}
	if _, ok := m.dataHit(kind, pc, addr, size); !ok {
		return false
	}
	m.sbOff = off
	return true
}
