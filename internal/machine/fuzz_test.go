package machine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// Property tests driving the CPU with arbitrary instruction streams:
// whatever bytes land in memory, the machine must never panic, must
// charge cycles monotonically, and must stop with a well-defined
// reason.

// TestCPURandomStreamsQuick executes random word streams.
func TestCPURandomStreamsQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New(64 << 10)
		base := uint32(0x2000)
		for i := 0; i < 256; i++ {
			m.RawWrite32(base+uint32(i*4), r.Uint32())
		}
		m.SetEIP(base)
		m.SetReg(isa.SP, 0x8000)
		before := m.Cycles()
		res := m.Run(5_000)
		if m.Cycles() < before {
			return false
		}
		switch res.Reason {
		case StopBudget, StopHalt, StopSVC, StopFault:
			return true
		default:
			return false
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCPUValidProgramsQuick builds random *valid* instruction sequences
// (no control flow, no memory ops) and checks they retire exactly and
// deterministically.
func TestCPUValidProgramsQuick(t *testing.T) {
	aluOps := []isa.Op{isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR,
		isa.OpSHL, isa.OpSHR, isa.OpMOV, isa.OpLDI, isa.OpADDI, isa.OpMUL, isa.OpNOP}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(64)
		var p isa.Program
		for i := 0; i < n; i++ {
			op := aluOps[r.Intn(len(aluOps))]
			p.Emit(isa.Instruction{
				Op:  op,
				Rd:  isa.Reg(r.Intn(7)), // keep SP out of it
				Rs:  isa.Reg(r.Intn(7)),
				Imm: int16(r.Intn(1 << 15)),
			})
		}
		p.Emit(isa.Instruction{Op: isa.OpHLT})

		run := func() ([8]uint32, uint64, RunResult) {
			m := New(64 << 10)
			m.LoadBytes(0x2000, p.Bytes())
			m.SetEIP(0x2000)
			m.SetReg(isa.SP, 0x8000)
			res := m.Run(1 << 20)
			var regs [8]uint32
			for i := range regs {
				regs[i] = m.Reg(isa.Reg(i))
			}
			return regs, m.Cycles(), res
		}
		regs1, cyc1, res1 := run()
		regs2, cyc2, res2 := run()
		if res1.Reason != StopHalt || res2.Reason != StopHalt {
			return false
		}
		if res1.Steps != uint64(n+1) {
			return false
		}
		return regs1 == regs2 && cyc1 == cyc2 // bit-reproducible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestChargeMonotonicQuick: Charge never decreases the counter and
// device polling cannot loop forever.
func TestChargeMonotonicQuick(t *testing.T) {
	m := New(64 << 10)
	timer := NewTimer(m.Cycles)
	m.MapDevice(PageTimer, timer)
	timer.Write(TimerRegPeriod, 3)
	timer.Write(TimerRegCtrl, 1)
	f := func(steps []uint16) bool {
		prev := m.Cycles()
		for _, s := range steps {
			m.Charge(uint64(s))
			if m.Cycles() < prev {
				return false
			}
			prev = m.Cycles()
			m.AckIRQ(IRQTimer)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStackMachineRoundTripQuick: pushing then popping random values
// restores both the values and SP.
func TestStackMachineRoundTripQuick(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) > 200 {
			vals = vals[:200]
		}
		m := New(64 << 10)
		var p isa.Program
		for range vals {
			p.Emit(isa.Instruction{Op: isa.OpPUSH, Rs: isa.R1})
		}
		p.Emit(isa.Instruction{Op: isa.OpHLT})
		m.LoadBytes(0x2000, p.Bytes())
		m.SetEIP(0x2000)
		sp0 := uint32(0x8000)
		m.SetReg(isa.SP, sp0)
		// Run push program once per value, setting R1 beforehand.
		// Simpler: write values manually through PUSH semantics.
		for i, v := range vals {
			m.SetReg(isa.R1, v)
			res := m.Step()
			if res.Reason != StopBudget {
				return false
			}
			if m.Reg(isa.SP) != sp0-uint32(4*(i+1)) {
				return false
			}
		}
		// Pop everything back via POP instructions.
		var p2 isa.Program
		p2.Emit(isa.Instruction{Op: isa.OpPOP, Rd: isa.R2})
		m.LoadBytes(0x6000, p2.Bytes())
		for i := len(vals) - 1; i >= 0; i-- {
			m.SetEIP(0x6000)
			res := m.Step()
			if res.Reason != StopBudget {
				return false
			}
			if m.Reg(isa.R2) != vals[i] {
				return false
			}
		}
		return m.Reg(isa.SP) == sp0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSuperblock runs a fuzzed loop body on the reference and the
// production engine in lockstep. superblockFuzzProgram turns the input
// into a valid program that loops past the warm-up gate, so the
// production engine compiles its blocks; the two machines run it
// through Run slices of fuzzed budgets, traced or not, and must agree
// after every slice and in RAM at the end.
func FuzzSuperblock(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 7, 100, 13, 1, 0x12, 0, 0, 16, 0x21, 8, 0, 18, 0x30, 8, 0, 30, 0x01, 1, 0, 24, 0, 0, 0})
	f.Add([]byte{2, 255, 3, 40, 6, 0x51, 0, 0, 7, 0x52, 0, 0, 25, 0, 0, 0, 20, 0x30, 0, 0, 21, 0x02, 0, 0, 32, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, budgets, traced := superblockFuzzProgram(data)
		r := newPairRig(64 << 10)
		if traced {
			r.trace()
		}
		r.each(func(m *Machine) {
			if err := m.LoadBytes(fuzzBase, prog.Bytes()); err != nil {
				t.Fatal(err)
			}
			m.SetEIP(fuzzBase)
		})
		for slice := 0; ; slice++ {
			budget := budgets[slice%len(budgets)]
			rr := r.ref.Run(budget)
			rp := r.prod.Run(budget)
			r.compare(t, fmt.Sprintf("slice %d (budget %d)", slice, budget), rr, rp)
			// Each slice's trace is compared once.
			r.rtr, r.ptr = stepTrace{r.rtr.pcs[:0], r.rtr.ops[:0]}, stepTrace{r.ptr.pcs[:0], r.ptr.ops[:0]}
			if rr.Reason != StopBudget {
				if rr.Reason != StopHalt {
					t.Fatalf("slice %d: stopped with %v (fault %v)", slice, rr.Reason, rr.Fault)
				}
				break
			}
		}
		r.compareRAM(t, "end")
		if st := r.prod.Stats(); st.SBCompiles == 0 {
			t.Fatalf("nothing compiled: %+v", st)
		}
	})
}

// The fuzzed program's layout: text at fuzzBase, the loop's data
// buffer at fuzzBuf and its stack top at fuzzStack, far enough apart
// that no body's stack or buffer traffic reaches another's bytes.
const (
	fuzzBase  = 0x2000
	fuzzStack = 0x8000
	fuzzBuf   = 0x9000
)

// superblockFuzzProgram decodes fuzz input into a program, a budget
// cycle and whether to trace. data[0] picks tracing (bit 0) and extra
// iterations; data[1:4] give three budgets, the first two of 1..256
// cycles and the third of 256..65,536 cycles in steps of 256, long
// enough that a chain of compiled blocks ends on the budget guard
// (a missing byte gives a large budget); every further 4 bytes become
// one body instruction. The program is
//
//	entry: ldi32 r1, iterations; ldi32 r6, fuzzBuf; ldi32 r5, leaf
//	loop:  ldi32 sp, fuzzStack
//	       body
//	tail:  addi r1, -1; cmpi r1, 0; bne loop; hlt
//	leaf:  addi r0, 1; ret
//
// The body writes only r0, r2, r3 and r4; addresses its loads and
// stores off r6 within a 256-byte buffer; calls only leaf (call, or
// callr r5); and branches only forward, at most to tail, so every
// program halts after more iterations than the warm-up gate.
func superblockFuzzProgram(data []byte) (isa.Program, []uint64, bool) {
	budgets := []uint64{1 << 20, 1 << 20, 1 << 20}
	var flags byte
	if len(data) > 0 {
		flags = data[0]
	}
	for i := 1; i < 4 && i < len(data); i++ {
		budgets[i-1] = uint64(data[i]) + 1
	}
	if len(data) > 3 {
		budgets[2] <<= 8
	}
	iters := uint32(sbCompileThreshold + 1 + int(flags>>1))

	writable := [4]isa.Reg{isa.R0, isa.R2, isa.R3, isa.R4}
	aluRR := []isa.Op{isa.OpMOV, isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR,
		isa.OpXOR, isa.OpSHL, isa.OpSHR, isa.OpMUL, isa.OpCMP}
	branches := []isa.Op{isa.OpJMP, isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE,
		isa.OpBLTU, isa.OpBGEU}
	// skip[i] >= 0 makes body[i] a forward transfer over skip[i] body
	// instructions; jrPair marks the ldi32 that loads its jr's target,
	// the instruction after the jr, and jrSelf the jr, which no branch
	// may land on.
	const jrPair, jrSelf = -2, -3
	var body []isa.Instruction
	var skip []int
	add := func(in isa.Instruction, s int) {
		body = append(body, in)
		skip = append(skip, s)
	}
	for p := 4; p+4 <= len(data) && len(body) < 48; p += 4 {
		b := data[p : p+4]
		rd := writable[b[1]&3]
		rs := isa.Reg(b[1] >> 4 & 7)
		imm := int16(uint16(b[2]) | uint16(b[3])<<8)
		kind := int(b[0]) % (len(aluRR) + 16 + len(branches))
		switch {
		case kind < len(aluRR):
			add(isa.Instruction{Op: aluRR[kind], Rd: rd, Rs: rs}, -1)
		case kind >= len(aluRR)+16:
			add(isa.Instruction{Op: branches[kind-len(aluRR)-16]}, int(b[2]&3))
		default:
			switch kind - len(aluRR) {
			case 0:
				add(isa.Instruction{Op: isa.OpLDI, Rd: rd, Imm: imm}, -1)
			case 1:
				add(isa.Instruction{Op: isa.OpLUI, Rd: rd, Imm: imm}, -1)
			case 2:
				add(isa.Instruction{Op: isa.OpADDI, Rd: rd, Imm: imm}, -1)
			case 3:
				add(isa.Instruction{Op: isa.OpCMPI, Rd: rd, Imm: imm}, -1)
			case 4:
				add(isa.Instruction{Op: isa.OpLDI32, Rd: rd, Imm32: uint32(uint16(imm)) * 0x10001}, -1)
			case 5:
				add(isa.Instruction{Op: isa.OpNOP}, -1)
			case 6:
				add(isa.Instruction{Op: isa.OpLD, Rd: rd, Rs: isa.R6, Imm: int16(b[2] &^ 3)}, -1)
			case 7:
				add(isa.Instruction{Op: isa.OpLDB, Rd: rd, Rs: isa.R6, Imm: int16(b[2])}, -1)
			case 8:
				add(isa.Instruction{Op: isa.OpST, Rd: isa.R6, Rs: rs, Imm: int16(b[2] &^ 3)}, -1)
			case 9:
				add(isa.Instruction{Op: isa.OpSTB, Rd: isa.R6, Rs: rs, Imm: int16(b[2])}, -1)
			case 10:
				add(isa.Instruction{Op: isa.OpPUSH, Rs: rs}, -1)
			case 11:
				add(isa.Instruction{Op: isa.OpPOP, Rd: rd}, -1)
			case 12:
				add(isa.Instruction{Op: isa.OpRDCYC, Rd: rd}, -1)
			case 13:
				add(isa.Instruction{Op: isa.OpCALL}, -1) // target patched below
			case 14:
				add(isa.Instruction{Op: isa.OpCALLR, Rs: isa.R5}, -1)
			case 15:
				add(isa.Instruction{Op: isa.OpLDI32, Rd: isa.R4}, jrPair)
				add(isa.Instruction{Op: isa.OpJR, Rs: isa.R4}, jrSelf)
			}
		}
	}

	// Lay out: addr[i] is body[i]'s address, addr[len(body)] is tail.
	const loop = fuzzBase + 3*8
	addr := make([]uint32, len(body)+1)
	addr[0] = loop + 8
	for i, in := range body {
		addr[i+1] = addr[i] + in.Width()
	}
	tail := addr[len(body)]
	leaf := tail + 4*4
	rel := func(from, to uint32) int16 { return int16((int32(to) - int32(from+4)) / 4) }

	var p isa.Program
	p.Emit(isa.Instruction{Op: isa.OpLDI32, Rd: isa.R1, Imm32: iters})
	p.Emit(isa.Instruction{Op: isa.OpLDI32, Rd: isa.R6, Imm32: fuzzBuf})
	p.Emit(isa.Instruction{Op: isa.OpLDI32, Rd: isa.R5, Imm32: leaf})
	p.Emit(isa.Instruction{Op: isa.OpLDI32, Rd: isa.SP, Imm32: fuzzStack})
	for i, in := range body {
		switch {
		case in.Op == isa.OpCALL:
			in.Imm = rel(addr[i], leaf)
		case skip[i] == jrPair:
			in.Imm32 = addr[i+2]
		case skip[i] >= 0:
			to := min(i+1+skip[i], len(body))
			if to < len(body) && skip[to] == jrSelf {
				to++
			}
			in.Imm = rel(addr[i], addr[to])
		}
		p.Emit(in)
	}
	p.Emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R1, Imm: -1})
	p.Emit(isa.Instruction{Op: isa.OpCMPI, Rd: isa.R1, Imm: 0})
	p.Emit(isa.Instruction{Op: isa.OpBNE, Imm: rel(tail+8, loop)})
	p.Emit(isa.Instruction{Op: isa.OpHLT})
	p.Emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R0, Imm: 1})
	p.Emit(isa.Instruction{Op: isa.OpRET})
	return p, budgets, flags&1 != 0
}
