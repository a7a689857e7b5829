package machine

import (
	"testing"

	"repro/internal/isa"
)

// TestReleasedTablesCleared: Release pools the production engine's
// predecode table and compiled-block table, and the next machine takes
// them over. Every machine starts at generation 1, so an entry left
// behind by the last owner would match there. Program A runs its
// compute loop until blocks compile, then the machines are released;
// program B, the same loop with different constants at the same
// addresses, then runs on new machines, and the production engine must
// agree with the reference oracle on registers, cycles and faults.
// The pools hand out the most recently released table of a size, so
// program B's machine reuses both of program A's tables.
func TestReleasedTablesCleared(t *testing.T) {
	const base, entry = 0x2000, 0x2000 + 4*4
	kernel := kernelProgram()
	progA := kernel.Bytes()
	// Program B's fn is r0 = r0*3 + 5 in place of r0*2 + 3: words 0
	// and 2 of the same image.
	progB := append([]byte(nil), progA...)
	copy(progB[0:], isa.Encode(nil, isa.Instruction{Op: isa.OpLDI, Rd: isa.R4, Imm: 3}))
	copy(progB[8:], isa.Encode(nil, isa.Instruction{Op: isa.OpADDI, Rd: isa.R0, Imm: 5}))

	run := func(prog []byte) *pairRig {
		r := newPairRig(64 << 10)
		r.trace()
		r.each(func(m *Machine) {
			m.LoadBytes(base, prog)
			m.SetEIP(entry)
			m.SetReg(isa.SP, 0x8000)
		})
		r.runSlices(t, []uint64{1 << 20}, 100)
		return r
	}

	a := run(progA)
	if a.prod.Stats().SBCompiles == 0 || len(a.prod.icache) != 1<<icacheBits {
		t.Fatalf("program A left no tables to pool: %+v", a.prod.Stats())
	}
	icA, sbA := &a.prod.icache[0], &a.prod.sbcache[0]
	a.each(func(m *Machine) { m.Release() })

	b := run(progB) // compares the two engines after every slice
	reused := &b.prod.icache[0] == icA && &b.prod.sbcache[0] == sbA
	sumB := b.prod.Reg(isa.R2)
	b.each(func(m *Machine) { m.Release() })
	if sumB == a.prod.Reg(isa.R2) {
		t.Fatal("programs A and B compute the same sum; B cannot tell a stale table")
	}
	if !reused {
		t.Fatal("program B did not reuse program A's tables")
	}
}
