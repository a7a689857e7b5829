package loader

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/machine"
	"repro/internal/telf"
)

// multiRelocSource has several data references so the reloc phase spans
// multiple fixups — an abort can land strictly in the middle of it.
const multiRelocSource = `
.task "t"
.entry main
.stack 128
.bss 32
.text
main:
    ldi32 r1, a
    ldi32 r2, b
    ldi32 r3, c
    ld r0, [r1+0]
    hlt
.data
a:
    .word 1
b:
    .word 2
c:
    .word 3
`

func assembleMultiReloc(t *testing.T) *telf.Image {
	t.Helper()
	im, err := asm.Assemble(multiRelocSource)
	if err != nil {
		t.Fatal(err)
	}
	if len(im.Relocs) < 3 {
		t.Fatalf("want ≥3 relocs for a mid-phase abort, got %d", len(im.Relocs))
	}
	return im
}

var errInjected = errors.New("injected memory failure")

// faultyMem wraps a Memory and fails either the n-th RawWrite32
// (fixup), counted from one, or every LoadBytes (copy) whose span
// covers failLoadAddr. A refused LoadBytes writes nothing, as the
// machine's bus refuses a span that leaves RAM.
type faultyMem struct {
	Memory
	failWriteAt  int
	failLoadAddr uint32 // 0: no copy fails
	writes       int
}

func (f *faultyMem) RawWrite32(addr, v uint32) error {
	f.writes++
	if f.failWriteAt > 0 && f.writes == f.failWriteAt {
		return errInjected
	}
	return f.Memory.RawWrite32(addr, v)
}

func (f *faultyMem) LoadBytes(addr uint32, b []byte) error {
	if f.failLoadAddr != 0 && addr <= f.failLoadAddr && f.failLoadAddr-addr < uint32(len(b)) {
		return errInjected
	}
	return f.Memory.LoadBytes(addr, b)
}

// driveToError steps the job until the injected failure surfaces.
func driveToError(t *testing.T, job *Job) {
	t.Helper()
	for i := 0; i < 100000; i++ {
		if _, err := job.Step(300); err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("unexpected step error: %v", err)
			}
			return
		}
		if job.Done() {
			t.Fatal("job completed; failure was never injected")
		}
	}
	t.Fatal("job did not hit the injected failure")
}

// TestRevertAfterMidRelocError: when a load dies mid-relocation,
// reverting the applied fixups restores the flash-image bytes exactly —
// the property the RTM's revert-before-hash and the abort path both
// depend on.
func TestRevertAfterMidRelocError(t *testing.T) {
	m := machine.New(1 << 20)
	im := assembleMultiReloc(t)
	// Fail on the 2nd fixup write; writes 1..N before that are fine.
	fm := &faultyMem{Memory: m, failWriteAt: 2}
	job := NewJob(fm, im, 0x20000)
	driveToError(t, job)

	if job.Phase() != PhaseReloc {
		t.Fatalf("phase = %v, want reloc", job.Phase())
	}
	applied := job.reloc
	if applied == 0 || applied >= len(im.Relocs) {
		t.Fatalf("applied = %d of %d; abort not mid-phase", applied, len(im.Relocs))
	}

	p := job.Placement()
	for i := applied - 1; i >= 0; i-- {
		if err := RevertRelocation(m, p, im.Relocs[i]); err != nil {
			t.Fatal(err)
		}
	}
	blob := append(append([]byte(nil), im.Text...), im.Data...)
	got, err := ramBytes(m, p.Base, uint32(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("reverted memory differs from the flash image")
	}
}

// TestJobAbortMidReloc: Abort after a mid-reloc failure reverts the
// applied fixups and zeroes the whole touched extent, leaving the region
// indistinguishable from never-used RAM.
func TestJobAbortMidReloc(t *testing.T) {
	m := machine.New(1 << 20)
	im := assembleMultiReloc(t)
	fm := &faultyMem{Memory: m, failWriteAt: 2}
	job := NewJob(fm, im, 0x20000)
	driveToError(t, job)

	p := job.Placement()
	extent := p.BSSBase() + im.BSSSize - p.Base
	cost, err := job.Abort()
	if err != nil {
		t.Fatal(err)
	}
	if cost == 0 {
		t.Error("abort cost = 0; teardown must be accounted")
	}
	if !job.Aborted() {
		t.Error("Aborted() = false after Abort")
	}
	if job.reloc != 0 {
		t.Errorf("applied relocs = %d after Abort", job.reloc)
	}
	got, err := ramBytes(m, p.Base, extent)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte +%d = %#x after abort, want 0", i, b)
		}
	}
	if _, err := job.Step(100); err != ErrJobDone {
		t.Errorf("Step after Abort = %v, want ErrJobDone", err)
	}
	if c2, err := job.Abort(); err != nil || c2 != 0 {
		t.Errorf("second Abort = (%d, %v), want (0, nil)", c2, err)
	}
}

// TestJobAbortMidCopy: an abort during the streaming phase zeroes only
// what was streamed and leaves the job dead.
func TestJobAbortMidCopy(t *testing.T) {
	m := machine.New(1 << 20)
	im := assembleMultiReloc(t)
	fm := &faultyMem{Memory: m, failLoadAddr: 0x20000 + 8} // the third word
	job := NewJob(fm, im, 0x20000)
	driveToError(t, job)

	if job.Phase() != PhaseCopy {
		t.Fatalf("phase = %v, want copy", job.Phase())
	}
	if _, err := job.Abort(); err != nil {
		t.Fatal(err)
	}
	p := job.Placement()
	got, err := ramBytes(m, p.Base, uint32(len(im.Text)+len(im.Data)))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte +%d = %#x after copy-phase abort, want 0", i, b)
		}
	}
}

// TestJobAbortCostMatchesRevert: aborting right after completion-level
// relocation work charges the same per-fixup costs as applying them —
// the teardown is cycle-accounted symmetrically.
func TestJobAbortCostMatchesRevert(t *testing.T) {
	m := machine.New(1 << 20)
	im := assembleMultiReloc(t)
	fm := &faultyMem{Memory: m, failWriteAt: len(im.Relocs)} // fail on the last fixup
	job := NewJob(fm, im, 0x20000)
	driveToError(t, job)

	applied := job.reloc
	var fixups uint64
	for i := 0; i < applied; i++ {
		fixups += FixupCost(im.Relocs[i].Kind)
	}
	p := job.Placement()
	extent := uint64(p.BSSBase() + im.BSSSize - p.Base)
	want := fixups + extent/4*machine.CostZeroWord
	cost, err := job.Abort()
	if err != nil {
		t.Fatal(err)
	}
	if cost != want {
		t.Errorf("abort cost = %d, want %d (fixups %d + zero %d)",
			cost, want, fixups, extent/4*machine.CostZeroWord)
	}
}

// ramBytes copies n bytes of RAM from addr, bypassing the EA-MPU; it
// fails for a span outside RAM.
func ramBytes(m *machine.Machine, addr, n uint32) ([]byte, error) {
	if addr < machine.RAMBase || addr+n > m.RAMEnd() {
		return nil, fmt.Errorf("[%#x, %#x) is not RAM", addr, addr+n)
	}
	out := make([]byte, 0, n+3)
	for a := addr; a < addr+n; a += 4 {
		w, _ := m.RawRead32(a)
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out[:n], nil
}
