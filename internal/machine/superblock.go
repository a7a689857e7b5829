package machine

import (
	"encoding/binary"

	"repro/internal/eampu"
	"repro/internal/isa"
)

// The superblock compiler: block-at-a-time execution for Run.
//
// Once a dispatch PC is hot (sbCompileThreshold), compileBlock walks the
// straight-line instruction run starting at the dispatch PC — the same
// block discipline internal/sverify uses, over the loaded bytes instead
// of the image — and lowers each instruction to an sbOp of plain
// operands, decoded and with its immediate or branch target worked out
// once. execBlock runs the op array under a single switch on the
// opcode. Cycle costs are summed at compile time and charged in one
// add; every memory op keeps a per-op pre-check that can refuse,
// sending execution back to the interpreter. Blocks chain: when one
// exits, stepBlock dispatches the next compiled block straight away,
// through a one-entry successor link on the block, for as long as the
// dispatch guards hold, instead of returning to Run between blocks.
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
//   - A compiled op never faults. Every memory op runs a
//     side-effect-free pre-check (sbCheckData) before its effect; if
//     the caches do not already allow the access, the block bails
//     *before* the op and the interpreter performs it, reproducing any
//     fault exactly (same PC, same cycle, same counters).
//   - A block, first or chained, is dispatched only when neither the
//     cycle budget nor the interrupt-poll watermark can trip at any
//     instruction boundary inside it (guards on maxCost), so the bulk
//     cycle charge cannot skip a poll or a budget stop the interpreter
//     would have taken. Blocks contain no MMIO, SVC or HLT, so no
//     device, interrupt or kernel state can change mid-block or
//     mid-chain.
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
	// periods. A capped block falls through into the block at its next
	// PC, which stepBlock's chain dispatches directly.
	sbMaxOps = 64

	// sbPageBits is the write-protection granule for compiled code
	// (256 bytes): sbPages records, per granule, the generation whose
	// compiled blocks cover it.
	sbPageBits = 8
)

// sbOp is one compiled instruction, lowered to plain operands: in
// supplies the opcode and rd/rs (and is what an OnStep hook observes),
// imm the one operand worked out at compile time (the sign-extended
// immediate, LUI/LDI32's constant, or a direct branch or call target),
// next the fall-through PC (CALL's return address), and cost the base
// cycle cost.
type sbOp struct {
	in   isa.Instruction
	pc   uint32
	next uint32
	imm  uint32
	cost uint32
}

// superblock is one compiled basic block. succ is its one-entry
// successor link: the block that starts at succPC, the first exit PC at
// which the table held a compiled, non-empty block passing the
// exec-span test (see stepBlock).
type superblock struct {
	start   uint32 // PC of the first instruction
	end     uint32 // last byte of the last fused instruction
	maxCost uint64 // upper bound on cycles one dispatch can charge
	ops     []sbOp
	succPC  uint32
	succ    *superblock
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
// costs tens of interpreted instructions and a few allocations per
// block, so it pays only for code that then runs hundreds of times.
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

// stepBlock runs compiled blocks from EIP: the first through the
// block table, then a chain of successors, each dispatched straight
// from the block before while every check the next Run iteration would
// make still passes. It returns the instructions the blocks retired,
// and ok=false when the interpreter must run the instruction at EIP
// next: either the first block could not be dispatched (n=0, machine
// state untouched) or a chained block refused at op 0, which Run then
// steps without dispatching that block a second time.
//
// Inside a chain, Run's and stepBlock's per-block checks reduce to the
// poll and budget guards on each block's maxCost:
//
//   - InterruptDeliverable was false when the chain began and stays
//     false: compiled ops touch no MMIO, no pending line and no enable
//     bit, and the guards keep m.cycles below pollAt, so no source
//     comes due. The budget guard implies Run's budget test.
//   - The EA-MPU is reconfigured only between Run calls (a hooked run
//     stops after one block), and Run folds that into m.gen before the
//     first block. A block belongs to exactly one generation, and a
//     store that bumps m.gen splits its block, so the chain ends as
//     soon as m.gen leaves the generation it started in.
//   - A link holds for its whole generation: its block was compiled
//     from this generation's bytes and lies in the exec span of the
//     exit that filled it. Following it runs the block the table
//     lookup and execHit would dispatch, without the hash or the span
//     test. (Only if the successor's table or span slot was evicted
//     since would the table path have interpreted it instead.)
//
// Any miss — no link and no compiled block at the exit PC, a failing
// guard, a generation change — returns to Run, whose next stepBlock
// makes the full checks and counts the fallback, so the Stats counters
// read what one block per Run iteration gives.
func (m *Machine) stepBlock(start, budget uint64) (uint64, bool) {
	m.syncMPUGen()
	pc := m.eip
	if m.sbcache == nil {
		m.sbcache = getTable[sbEntry](&sbcachePool, sbSize)
	}
	e := m.sbSlot(pc)
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
	// Neither the poll watermark nor the budget may trip at any
	// boundary inside the block; otherwise the interpreter must run so
	// its per-instruction checks fire at the exact cycle the reference
	// engine's would. pollAt==0 (poll now / unscheduled source) always
	// falls back, and the interpreter's Charge re-establishes it.
	if len(sb.ops) == 0 || !m.sbFits(sb, start, budget) || !m.sbInSpan(sb) {
		m.sbFallbacks++
		return 0, false
	}
	gen := m.gen
	var steps uint64
	for {
		m.sbHits++
		n, ok := m.execBlock(sb, gen)
		steps += n
		if !ok || m.OnStep != nil || m.gen != gen {
			return steps, ok
		}
		next := sb.succ
		if next == nil || sb.succPC != m.eip {
			if next = m.sbLookup(); next == nil {
				return steps, true
			}
			if sb.succ == nil {
				sb.succPC, sb.succ = m.eip, next
			}
		}
		if !m.sbFits(next, start, budget) {
			return steps, true
		}
		sb = next
	}
}

// sbFits reports whether sb can run to its end without crossing the
// poll watermark or the budget of the Run call that began at start.
func (m *Machine) sbFits(sb *superblock, start, budget uint64) bool {
	return m.cycles+sb.maxCost < m.pollAt && m.cycles-start+sb.maxCost < budget
}

// sbInSpan is the entry fetch check: fetchFast's span-cache hit test
// at EIP. A miss falls back so the interpreter decides the fetch,
// raising the identical fault or filling the span. The whole block
// must also lie inside the constant-verdict span; then every interior
// sequential fetch is allowed, as on the fast path. (compileBlock
// clamps blocks to the span, so this only fails when the span cache
// holds a different, narrower span for this slot.)
func (m *Machine) sbInSpan(sb *superblock) bool {
	ex, ok := m.execHit(m.eip)
	return ok && ex.lo <= sb.start && sb.end <= ex.hi
}

// sbLookup is a chain's table lookup at EIP: the compiled, non-empty
// block of this generation starting there, if it passes the exec-span
// test, else nil. Unlike stepBlock it changes no entry and counts
// nothing; Run's next stepBlock does both.
func (m *Machine) sbLookup() *superblock {
	e := m.sbSlot(m.eip)
	if e.gen != m.gen || e.pc != m.eip || e.sb == nil || len(e.sb.ops) == 0 || !m.sbInSpan(e.sb) {
		return nil
	}
	return e.sb
}

// sbSlot is pc's slot in the compiled-block table.
func (m *Machine) sbSlot(pc uint32) *sbEntry {
	return &m.sbcache[(pc>>2)*hashMul>>(32-sbBits)]
}

// execBlock runs a compiled block: one switch on each op's opcode.
// When an instruction-trace hook is attached it downshifts to per-op
// bookkeeping so the hook observes the same (pc, insn, state) sequence
// Step would give it; otherwise retire and cycle counts are applied in
// bulk at block exit (the dispatch guards guarantee no poll or budget
// boundary lies inside). A hook that writes into compiled code ends
// the block after the op it observed.
//
// Every load, store, push, pop, call and return checks its access
// with sbCheckData before its effect. A hooked run checks ahead of the
// hook (sbPre), so a refused op is observed once, by the interpreter's
// Step; the switch's own check is then skipped.
func (m *Machine) execBlock(sb *superblock, gen uint32) (uint64, bool) {
	hooked := m.OnStep != nil
	ops := sb.ops
	r := &m.regs
	var cost uint64 // cycles retired ops have not yet charged
	for i := 0; i < len(ops); i++ {
		op := &ops[i]
		rd, rs := op.in.Rd, op.in.Rs
		n := uint64(i) + 1
		if hooked {
			if !m.sbPre(op) {
				return m.sbBail(ops, i, hooked, cost)
			}
			m.cycles += cost
			cost = 0
			m.eip = op.pc
			m.insnRetired++
			if m.OnStep != nil { // the hook may detach itself mid-run
				m.OnStep(op.pc, op.in)
				if m.gen != gen {
					// The hook wrote into compiled code, so every later
					// op may be stale: op runs as fetched and the block
					// ends after it, as sbSplit ends it after a store.
					// The bump left no code range armed, so op's own
					// write, if any, cannot bump again.
					m.sbBails++
					ops, gen = ops[:i+1], m.gen
				}
			}
			m.execPC = op.pc
			m.lastPC = op.pc
			m.branched = false
		}
		c := uint64(op.cost)
		switch op.in.Op {
		case isa.OpNOP:
		case isa.OpMOV:
			r[rd] = r[rs]
		case isa.OpLDI, isa.OpLUI, isa.OpLDI32:
			r[rd] = op.imm
		case isa.OpADD:
			r[rd] += r[rs]
		case isa.OpSUB:
			r[rd] -= r[rs]
		case isa.OpAND:
			r[rd] &= r[rs]
		case isa.OpOR:
			r[rd] |= r[rs]
		case isa.OpXOR:
			r[rd] ^= r[rs]
		case isa.OpSHL:
			r[rd] <<= r[rs] & 31
		case isa.OpSHR:
			r[rd] >>= r[rs] & 31
		case isa.OpADDI:
			r[rd] += op.imm
		case isa.OpMUL:
			r[rd] *= r[rs]
		case isa.OpCMP:
			m.setFlags(r[rd], r[rs])
		case isa.OpCMPI:
			m.setFlags(r[rd], op.imm)
		case isa.OpLD:
			if !hooked && !m.sbCheckData(eampu.AccessRead, op.pc, r[rs]+op.imm, 4) {
				return m.sbBail(ops, i, hooked, cost)
			}
			r[rd] = binary.LittleEndian.Uint32(m.ram[m.sbOff:])
		case isa.OpLDB:
			if !hooked && !m.sbCheckData(eampu.AccessRead, op.pc, r[rs]+op.imm, 1) {
				return m.sbBail(ops, i, hooked, cost)
			}
			r[rd] = uint32(m.ram[m.sbOff])
		case isa.OpST:
			if !hooked && !m.sbCheckData(eampu.AccessWrite, op.pc, r[rd]+op.imm, 4) {
				return m.sbBail(ops, i, hooked, cost)
			}
			m.noteRAMWrite(int(m.sbOff), 4)
			binary.LittleEndian.PutUint32(m.ram[m.sbOff:], r[rs])
			if m.gen != gen {
				return m.sbSplit(op, n, hooked, cost+c)
			}
		case isa.OpSTB:
			if !hooked && !m.sbCheckData(eampu.AccessWrite, op.pc, r[rd]+op.imm, 1) {
				return m.sbBail(ops, i, hooked, cost)
			}
			m.noteRAMWrite(int(m.sbOff), 1)
			m.ram[m.sbOff] = byte(r[rs])
			if m.gen != gen {
				return m.sbSplit(op, n, hooked, cost+c)
			}
		case isa.OpPUSH:
			if !hooked && !m.sbCheckData(eampu.AccessWrite, op.pc, r[isa.SP]-4, 4) {
				return m.sbBail(ops, i, hooked, cost)
			}
			m.noteRAMWrite(int(m.sbOff), 4)
			binary.LittleEndian.PutUint32(m.ram[m.sbOff:], r[rs])
			r[isa.SP] -= 4
			if m.gen != gen {
				return m.sbSplit(op, n, hooked, cost+c)
			}
		case isa.OpPOP:
			if !hooked && !m.sbCheckData(eampu.AccessRead, op.pc, r[isa.SP], 4) {
				return m.sbBail(ops, i, hooked, cost)
			}
			r[rd] = binary.LittleEndian.Uint32(m.ram[m.sbOff:])
			r[isa.SP] += 4
		case isa.OpJMP:
			return m.sbExit(op.imm, op.pc, true, hooked, n, cost+c+branchTakenExtra)
		case isa.OpBEQ:
			return m.sbBranch(op, m.eflags&isa.FlagZ != 0, hooked, n, cost+c)
		case isa.OpBNE:
			return m.sbBranch(op, m.eflags&isa.FlagZ == 0, hooked, n, cost+c)
		case isa.OpBLT:
			return m.sbBranch(op, m.eflags&isa.FlagN != 0, hooked, n, cost+c)
		case isa.OpBGE:
			return m.sbBranch(op, m.eflags&isa.FlagN == 0, hooked, n, cost+c)
		case isa.OpBLTU:
			return m.sbBranch(op, m.eflags&isa.FlagC != 0, hooked, n, cost+c)
		case isa.OpBGEU:
			return m.sbBranch(op, m.eflags&isa.FlagC == 0, hooked, n, cost+c)
		case isa.OpJR:
			return m.sbExit(r[rs], op.pc, true, hooked, n, cost+c)
		case isa.OpCALL, isa.OpCALLR:
			if !hooked && !m.sbCheckData(eampu.AccessWrite, op.pc, r[isa.SP]-4, 4) {
				return m.sbBail(ops, i, hooked, cost)
			}
			m.noteRAMWrite(int(m.sbOff), 4)
			binary.LittleEndian.PutUint32(m.ram[m.sbOff:], op.next)
			r[isa.SP] -= 4
			target := op.imm
			if op.in.Op == isa.OpCALLR {
				target = r[rs]
			}
			return m.sbExit(target, op.pc, true, hooked, n, cost+c)
		case isa.OpRET:
			if !hooked && !m.sbCheckData(eampu.AccessRead, op.pc, r[isa.SP], 4) {
				return m.sbBail(ops, i, hooked, cost)
			}
			target := binary.LittleEndian.Uint32(m.ram[m.sbOff:])
			r[isa.SP] += 4
			return m.sbExit(target, op.pc, true, hooked, n, cost+c)
		}
		cost += c
	}
	// Capped block: chain into the next dispatch at the fall-through PC.
	last := &ops[len(ops)-1]
	return m.sbExit(last.next, last.pc, false, hooked, uint64(len(ops)), cost)
}

// sbPre is a hooked run's pre-check: it validates op's memory access,
// if op has one, exactly as the switch in execBlock would.
func (m *Machine) sbPre(op *sbOp) bool {
	r := &m.regs
	switch op.in.Op {
	case isa.OpLD:
		return m.sbCheckData(eampu.AccessRead, op.pc, r[op.in.Rs]+op.imm, 4)
	case isa.OpLDB:
		return m.sbCheckData(eampu.AccessRead, op.pc, r[op.in.Rs]+op.imm, 1)
	case isa.OpST:
		return m.sbCheckData(eampu.AccessWrite, op.pc, r[op.in.Rd]+op.imm, 4)
	case isa.OpSTB:
		return m.sbCheckData(eampu.AccessWrite, op.pc, r[op.in.Rd]+op.imm, 1)
	case isa.OpPUSH, isa.OpCALL, isa.OpCALLR:
		return m.sbCheckData(eampu.AccessWrite, op.pc, r[isa.SP]-4, 4)
	case isa.OpPOP, isa.OpRET:
		return m.sbCheckData(eampu.AccessRead, op.pc, r[isa.SP], 4)
	}
	return true
}

// sbBail ends a block run before ops[i], whose pre-check refused. At
// op 0 nothing happened and the interpreter takes over; mid-block the
// retired prefix (cost cycles still to charge) is flushed and the
// interpreter resumes at the refused op.
func (m *Machine) sbBail(ops []sbOp, i int, hooked bool, cost uint64) (uint64, bool) {
	m.sbBails++
	if i == 0 {
		return 0, false
	}
	return m.sbExit(ops[i].pc, ops[i-1].pc, false, hooked, uint64(i), cost)
}

// sbSplit ends a block run after op, a store that landed in compiled
// code (self-modifying): every op after it is stale, so the interpreter
// refetches the next instruction from the freshly written bytes.
func (m *Machine) sbSplit(op *sbOp, n uint64, hooked bool, cost uint64) (uint64, bool) {
	m.sbBails++
	return m.sbExit(op.next, op.pc, false, hooked, n, cost)
}

// sbBranch ends a block run at a conditional branch; a taken branch
// pays branchTakenExtra.
func (m *Machine) sbBranch(op *sbOp, taken, hooked bool, n, cost uint64) (uint64, bool) {
	if taken {
		return m.sbExit(op.imm, op.pc, true, hooked, n, cost+branchTakenExtra)
	}
	return m.sbExit(op.next, op.pc, false, hooked, n, cost)
}

// sbExit ends a block run at eip, with last the PC of the last retired
// op. It charges cost, the cycles not yet charged, and, unless a hooked
// run already counted them one by one, the n retired ops.
func (m *Machine) sbExit(eip, last uint32, branched, hooked bool, n, cost uint64) (uint64, bool) {
	m.eip = eip
	m.lastPC = last
	m.execPC = last
	m.branched = branched
	m.cycles += cost
	if !hooked {
		m.insnRetired += n
	}
	return n, true
}

// compileBlock fuses the basic block starting at start. It stops before
// any instruction it cannot execute exactly (SVC/HLT/RDCYC, undecodable
// words) and after any terminator; a
// zero-op result is a negative entry meaning "always interpret here".
func (m *Machine) compileBlock(start uint32) *superblock {
	m.sbCompiles++
	sb := &superblock{start: start, end: start}
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
		next := pc + in.Width()
		if next-1 > spanHi {
			break
		}
		op, term, ok := lowerOp(in, pc, next)
		if !ok {
			break
		}
		sb.ops = append(sb.ops, op)
		sb.maxCost += uint64(op.cost)
		sb.end = next - 1
		pc = next
		if term {
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

// lowerOp lowers the instruction at pc, whose successor is at next,
// into an sbOp. term reports a transfer of control, which ends the
// block; ok=false ends the block before the instruction.
func lowerOp(in isa.Instruction, pc, next uint32) (op sbOp, term, ok bool) {
	op = sbOp{in: in, pc: pc, next: next, imm: uint32(int32(in.Imm)), cost: uint32(InstructionCost(in.Op))}
	switch in.Op {
	case isa.OpNOP, isa.OpMOV, isa.OpLDI, isa.OpADD, isa.OpSUB, isa.OpAND,
		isa.OpOR, isa.OpXOR, isa.OpSHL, isa.OpSHR, isa.OpADDI, isa.OpMUL,
		isa.OpCMP, isa.OpCMPI, isa.OpLD, isa.OpLDB, isa.OpST, isa.OpSTB,
		isa.OpPUSH, isa.OpPOP:
	case isa.OpLUI:
		op.imm = uint32(uint16(in.Imm)) << 16
	case isa.OpLDI32:
		op.imm = in.Imm32
	case isa.OpJMP, isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU,
		isa.OpBGEU, isa.OpCALL:
		op.imm = next + uint32(int32(in.Imm))*4
		term = true
	case isa.OpJR, isa.OpCALLR, isa.OpRET:
		term = true
	default:
		// SVC, HLT, RDCYC: traps and cycle reads need the interpreter's
		// per-instruction charging and stop handling.
		return op, false, false
	}
	return op, term, true
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
