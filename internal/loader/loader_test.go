package loader

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/machine"
	"repro/internal/telf"
)

func newAlloc(t *testing.T) *Allocator {
	t.Helper()
	a, err := NewAllocator(0x10000, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAllocFirstFit(t *testing.T) {
	a := newAlloc(t)
	addr1, scanned, err := a.Alloc(100)
	if err != nil || addr1 != 0x10000 || scanned != 1 {
		t.Fatalf("alloc1 = (%#x, %d, %v)", addr1, scanned, err)
	}
	addr2, _, err := a.Alloc(200)
	if err != nil {
		t.Fatal(err)
	}
	// 100 rounds to 128.
	if addr2 != 0x10000+128 {
		t.Errorf("addr2 = %#x, want %#x", addr2, 0x10000+128)
	}
	for _, addr := range []uint32{addr1, addr2} {
		if _, ok := a.SizeOf(addr); !ok {
			t.Errorf("allocation at %#x not live", addr)
		}
	}
}

func TestAllocReusesFreedHole(t *testing.T) {
	a := newAlloc(t)
	addr1, _, _ := a.Alloc(256)
	a.Alloc(256)
	if err := a.Free(addr1); err != nil {
		t.Fatal(err)
	}
	addr3, scanned, err := a.Alloc(256)
	if err != nil || addr3 != addr1 {
		t.Errorf("alloc3 = %#x (scanned %d, %v), want hole %#x", addr3, scanned, err, addr1)
	}
}

func TestAllocSkipsSmallHole(t *testing.T) {
	a := newAlloc(t)
	small, _, _ := a.Alloc(64)
	a.Alloc(64)
	a.Free(small)
	addr, scanned, err := a.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if addr == small {
		t.Error("128-byte alloc placed in 64-byte hole")
	}
	if scanned != 2 {
		t.Errorf("scanned = %d, want 2", scanned)
	}
}

func TestFreeCoalesces(t *testing.T) {
	a := newAlloc(t)
	x, _, _ := a.Alloc(64)
	y, _, _ := a.Alloc(64)
	z, _, _ := a.Alloc(64)
	a.Free(x)
	a.Free(z)
	if a.Fragments() != 3 { // hole(x) + hole(z..end-after-z)... x, then z+rest merged
		t.Logf("fragments = %d", a.Fragments())
	}
	a.Free(y)
	if a.Fragments() != 1 {
		t.Errorf("fragments after full free = %d, want 1", a.Fragments())
	}
	if a.FreeBytes() != 0x10000 {
		t.Errorf("FreeBytes = %#x, want 0x10000", a.FreeBytes())
	}
}

func TestAllocErrors(t *testing.T) {
	a := newAlloc(t)
	if _, _, err := a.Alloc(0); err != ErrZeroAlloc {
		t.Errorf("zero alloc = %v", err)
	}
	if _, _, err := a.Alloc(0x20000); !errors.Is(err, ErrNoMemory) {
		t.Errorf("huge alloc = %v", err)
	}
	if err := a.Free(0x12345); !errors.Is(err, ErrBadFree) {
		t.Errorf("bad free = %v", err)
	}
	if _, err := NewAllocator(0, 4); err != ErrPoolTooTiny {
		t.Errorf("tiny pool = %v", err)
	}
}

// TestAllocatorInvariantQuick: after arbitrary alloc/free sequences, the
// free bytes plus live bytes equal the pool size and no two live
// allocations overlap.
func TestAllocatorInvariantQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		a, err := NewAllocator(0x1000, 0x8000)
		if err != nil {
			return false
		}
		var livedAddrs []uint32
		for _, op := range ops {
			if op%3 == 0 && len(livedAddrs) > 0 {
				i := int(op/3) % len(livedAddrs)
				if a.Free(livedAddrs[i]) != nil {
					return false
				}
				livedAddrs = append(livedAddrs[:i], livedAddrs[i+1:]...)
				continue
			}
			size := uint32(op%2000) + 1
			addr, _, err := a.Alloc(size)
			if err != nil {
				continue // pool exhausted is fine
			}
			livedAddrs = append(livedAddrs, addr)
		}
		var liveBytes uint32
		for _, addr := range livedAddrs {
			s, ok := a.SizeOf(addr)
			if !ok {
				return false
			}
			liveBytes += s
			// Overlap check against all others.
			for _, other := range livedAddrs {
				if other == addr {
					continue
				}
				os, _ := a.SizeOf(other)
				if addr < other+os && other < addr+s {
					return false
				}
			}
		}
		return a.FreeBytes()+liveBytes == 0x8000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

const loadSource = `
.task "t"
.entry main
.stack 128
.bss 32
.text
main:
    ldi32 r1, value
    ld r0, [r1+0]
    hlt
.data
value:
    .word 7
`

func assembleTest(t *testing.T) *telf.Image {
	t.Helper()
	im, err := asm.Assemble(loadSource)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestPlacementLayout(t *testing.T) {
	im := assembleTest(t)
	p := Placement{Image: im, Base: 0x20000}
	if p.TextBase() != 0x20000 {
		t.Error("text base")
	}
	if p.DataBase() != 0x20000+uint32(len(im.Text)) {
		t.Error("data base")
	}
	if p.BSSBase() != p.DataBase()+uint32(len(im.Data)) {
		t.Error("bss base")
	}
	if p.StackTop() != p.StackBase()+128 {
		t.Error("stack top")
	}
	if p.EntryAddr() != 0x20000 {
		t.Error("entry addr")
	}
	if p.Region().Start != 0x20000 || p.Region().Size < p.Size() {
		t.Error("region")
	}
}

func TestJobLoadsAndRuns(t *testing.T) {
	m := machine.New(1 << 20)
	im := assembleTest(t)
	job := NewJob(m, im, 0x20000)
	cost, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !job.Done() {
		t.Fatal("job not done")
	}
	if cost == 0 {
		t.Fatal("zero cost")
	}
	// The loaded program must actually execute: relocation made the
	// ldi32 point at the absolute address of value.
	p := job.Placement()
	m.SetEIP(p.EntryAddr())
	m.SetReg(7, p.StackTop())
	res := m.Run(10000)
	if res.Reason != machine.StopHalt {
		t.Fatalf("run = %+v (fault: %v)", res.Reason, res.Fault)
	}
	if m.Reg(0) != 7 {
		t.Errorf("r0 = %d, want 7 (relocated data load)", m.Reg(0))
	}
}

func TestJobInterruptibleProgress(t *testing.T) {
	m := machine.New(1 << 20)
	im := assembleTest(t)
	job := NewJob(m, im, 0x20000)
	var total uint64
	steps := 0
	for !job.Done() {
		used, err := job.Step(300) // tiny budget: ~1 word per step
		if err != nil {
			t.Fatal(err)
		}
		if used == 0 && !job.Done() {
			t.Fatal("step made no progress")
		}
		total += used
		steps++
		if steps > 10000 {
			t.Fatal("job did not terminate")
		}
	}
	if steps < 4 {
		t.Errorf("steps = %d; job not actually incremental", steps)
	}
	// Same total cost as the uninterrupted run.
	m2 := machine.New(1 << 20)
	job2 := NewJob(m2, im, 0x20000)
	cost2, err := job2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if total != cost2 {
		t.Errorf("interrupted cost %d != straight cost %d", total, cost2)
	}
	if _, err := job.Step(100); err != ErrJobDone {
		t.Errorf("step after done = %v, want ErrJobDone", err)
	}
}

func TestJobZeroesBSS(t *testing.T) {
	m := machine.New(1 << 20)
	// Dirty the BSS area first.
	for a := uint32(0x20000); a < 0x20200; a += 4 {
		m.RawWrite32(a, 0xFFFFFFFF)
	}
	im := assembleTest(t)
	job := NewJob(m, im, 0x20000)
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	p := job.Placement()
	for off := uint32(0); off < im.BSSSize; off += 4 {
		v, _ := m.RawRead32(p.BSSBase() + off)
		if v != 0 {
			t.Fatalf("bss word at +%d = %#x, want 0", off, v)
		}
	}
}

func TestRelocationApplyRevertRoundTrip(t *testing.T) {
	m := machine.New(1 << 20)
	im := assembleTest(t)
	job := NewJob(m, im, 0x20000)
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	p := job.Placement()
	r := im.Relocs[0]
	before, _ := m.RawRead32(p.Base + r.Offset)
	if err := RevertRelocation(m, p, r); err != nil {
		t.Fatal(err)
	}
	reverted, _ := m.RawRead32(p.Base + r.Offset)
	if reverted != before-p.Base {
		t.Errorf("revert: %#x, want %#x", reverted, before-p.Base)
	}
	if err := ApplyRelocation(m, p, r); err != nil {
		t.Fatal(err)
	}
	again, _ := m.RawRead32(p.Base + r.Offset)
	if again != before {
		t.Errorf("re-apply: %#x, want %#x", again, before)
	}
}

func TestRevertInBlock(t *testing.T) {
	im := assembleTest(t)
	base := uint32(0x20000)
	// Build the loaded bytes by hand: text with relocation applied.
	loaded := append(append([]byte(nil), im.Text...), im.Data...)
	for _, r := range im.Relocs {
		v := uint32(loaded[r.Offset]) | uint32(loaded[r.Offset+1])<<8 |
			uint32(loaded[r.Offset+2])<<16 | uint32(loaded[r.Offset+3])<<24
		v += base
		loaded[r.Offset] = byte(v)
		loaded[r.Offset+1] = byte(v >> 8)
		loaded[r.Offset+2] = byte(v >> 16)
		loaded[r.Offset+3] = byte(v >> 24)
	}
	// Revert block by block; result must equal the original image bytes.
	orig := append(append([]byte(nil), im.Text...), im.Data...)
	reverted := 0
	for off := 0; off < len(loaded); off += 16 {
		end := off + 16
		if end > len(loaded) {
			end = len(loaded)
		}
		block := loaded[off:end]
		reverted += RevertInBlock(im, base, uint32(off), block)
	}
	if reverted != len(im.Relocs) {
		t.Errorf("reverted %d fixups, want %d", reverted, len(im.Relocs))
	}
	for i := range orig {
		if loaded[i] != orig[i] {
			t.Fatalf("byte %d: %#x != %#x after revert", i, loaded[i], orig[i])
		}
	}
}

// TestRelocationCostTable pins a finished load's relocation phase to
// Table 5: the table scan plus one fixup cost per entry.
func TestRelocationCostTable(t *testing.T) {
	relocCost := func(im *telf.Image) uint64 {
		t.Helper()
		job := NewJob(machine.New(1<<20), im, 0x20000)
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		return job.RelocCost()
	}
	im := &telf.Image{
		Text: make([]byte, 32),
		Relocs: []telf.Reloc{
			{Offset: 0, Kind: telf.RelWord},
			{Offset: 4, Kind: telf.RelImm32},
			{Offset: 8, Kind: telf.RelImm32Add},
		},
	}
	want := uint64(machine.CostRelocScan) + machine.CostRelocWord +
		machine.CostRelocImm32 + machine.CostRelocImm32Addend
	if got := relocCost(im); got != want {
		t.Errorf("RelocCost = %d, want %d", got, want)
	}
	empty := &telf.Image{Text: make([]byte, 4)}
	if got := relocCost(empty); got != machine.CostRelocScan {
		t.Errorf("empty image cost = %d, want %d (Table 5 row n=0: 37)", got, machine.CostRelocScan)
	}
}

func TestPhaseString(t *testing.T) {
	for p, want := range map[Phase]string{PhaseCopy: "copy", PhaseZero: "zero", PhaseReloc: "reloc", PhaseDone: "done"} {
		if p.String() != want {
			t.Errorf("Phase(%d).String() = %q", int(p), p.String())
		}
	}
}

func TestBestFitPrefersSmallestHole(t *testing.T) {
	a := newAlloc(t)
	a.SetStrategy(BestFit)
	// Carve two holes: 256B and 128B.
	x, _, _ := a.Alloc(256)
	a.Alloc(64)
	y, _, _ := a.Alloc(128)
	a.Alloc(64)
	a.Free(x)
	a.Free(y)
	// A 128B request must land in the 128B hole (y), not the 256B one.
	got, _, err := a.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if got != y {
		t.Errorf("best fit picked %#x, want the tight hole %#x", got, y)
	}
}

func TestLargestHole(t *testing.T) {
	a := newAlloc(t)
	x, _, _ := a.Alloc(256)
	a.Alloc(64)
	a.Free(x)
	if lh := a.LargestHole(); lh < 0x10000-512 {
		t.Errorf("largest hole = %d", lh)
	}
	if a.LargestHole() > a.FreeBytes() {
		t.Error("largest hole exceeds free bytes")
	}
}

// TestStrategiesInvariantQuick: both strategies keep the accounting
// invariant under churn; best-fit never reports more fragments when
// fed an identical trace... (not guaranteed in general, so only check
// accounting).
func TestStrategiesInvariantQuick(t *testing.T) {
	for _, strat := range []Strategy{FirstFit, BestFit} {
		a, err := NewAllocator(0x1000, 0x8000)
		if err != nil {
			t.Fatal(err)
		}
		a.SetStrategy(strat)
		var live []uint32
		seed := uint32(12345)
		rnd := func(n uint32) uint32 { seed = seed*1664525 + 1013904223; return seed % n }
		for op := 0; op < 500; op++ {
			if rnd(3) == 0 && len(live) > 0 {
				i := int(rnd(uint32(len(live))))
				if err := a.Free(live[i]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			addr, _, err := a.Alloc(rnd(1500) + 1)
			if err != nil {
				continue
			}
			live = append(live, addr)
		}
		var liveBytes uint32
		for _, addr := range live {
			sz, ok := a.SizeOf(addr)
			if !ok {
				t.Fatal("lost allocation")
			}
			liveBytes += sz
		}
		if a.FreeBytes()+liveBytes != 0x8000 {
			t.Errorf("strategy %d: accounting broken", strat)
		}
	}
}
