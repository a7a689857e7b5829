package loader

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/telf"
)

// wordLoopStep is Job.Step as it was before the copy phase moved a
// batch of words per LoadBytes: one LoadBytes per word, the budget
// tested after each. It is the reference the batched Step must match
// after every call, in its return values, its job state and RAM.
func wordLoopStep(j *Job, budget uint64) (used uint64, err error) {
	if j.phase == PhaseDone {
		return 0, ErrJobDone
	}
	for {
		var quantum uint64
		switch j.phase {
		case PhaseCopy:
			if j.pos >= uint32(len(j.blob)) {
				j.phase, j.pos = PhaseZero, 0
				continue
			}
			end := j.pos + 4
			if end > uint32(len(j.blob)) {
				end = uint32(len(j.blob))
			}
			if err := j.mem.LoadBytes(j.p.Base+j.pos, j.blob[j.pos:end]); err != nil {
				return used, err
			}
			j.pos = end
			quantum = wordCost
			j.copyCost += quantum
		case PhaseZero:
			total := j.p.Image.BSSSize
			if j.pos >= total {
				j.phase, j.pos = PhaseReloc, 0
				quantum = machine.CostRelocScan
				j.relocCost += quantum
				if len(j.p.Image.Relocs) == 0 {
					j.phase = PhaseDone
				}
				break
			}
			end := j.pos + 64
			if end > total {
				end = total
			}
			if err := j.mem.ZeroBytes(j.p.BSSBase()+j.pos, end-j.pos); err != nil {
				return used, err
			}
			quantum = uint64(end-j.pos) / 4 * machine.CostZeroWord
			j.zeroCost += quantum
			j.pos = end
		case PhaseReloc:
			if j.reloc >= len(j.p.Image.Relocs) {
				j.phase = PhaseDone
				return used, nil
			}
			r := j.p.Image.Relocs[j.reloc]
			if err := ApplyRelocation(j.mem, j.p, r); err != nil {
				return used, err
			}
			j.reloc++
			quantum = FixupCost(r.Kind)
			j.relocCost += quantum
		case PhaseDone:
			return used, nil
		}
		used += quantum
		if used >= budget {
			return used, nil
		}
	}
}

// stepBudgets are the per-Step budgets the oracle drives: below, at and
// above one word's cost, around the loader service's 4,096-cycle
// quantum, Run's 1<<30, the atomic ablation's 1<<40 and the largest.
var stepBudgets = []uint64{0, 1, 199, 200, 201, 4095, 4096, 1 << 30, 1 << 40, math.MaxUint64}

// stepBlobs are text ‖ data lengths: the t2-sized image with every
// len%4, a few words, and an empty image.
var stepBlobs = [][2]int{{56, 11600}, {56, 11601}, {56, 11602}, {56, 11603}, {5, 0}, {0, 3}, {0, 0}}

// jobQuantum is the loader service's per-Step budget (loaderQuantum in
// internal/core).
const jobQuantum = 4_096

const stepBase = 0x2000

// stepImage builds an image with textLen bytes of text and dataLen of
// data, both filled with a fixed non-zero pattern, a BSS that ends in a
// partial 64-byte zero quantum, and two fixups when the text holds them.
func stepImage(textLen, dataLen int) *telf.Image {
	fill := func(n, seed int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*31 + seed)
		}
		return b
	}
	im := &telf.Image{Name: "step", Text: fill(textLen, 1), Data: fill(dataLen, 7), BSSSize: 100, StackSize: 64}
	if textLen >= 8 {
		im.Relocs = []telf.Reloc{{Offset: 0, Kind: telf.RelWord}, {Offset: 4, Kind: telf.RelImm32}}
	}
	return im
}

// stepMachine returns a machine whose RAM around the load region holds
// a non-zero pattern, so every byte the job writes or zeroes shows.
func stepMachine(t testing.TB, ramSize uint32) *machine.Machine {
	t.Helper()
	m := machine.New(ramSize)
	junk := bytes.Repeat([]byte{0xA5}, int(ramSize-stepBase+machine.RAMBase))
	if err := m.LoadBytes(stepBase, junk); err != nil {
		t.Fatal(err)
	}
	return m
}

// matchWordLoop loads im at base on two machines, one job through Step
// and one through wordLoopStep, with budgets taken in turn. When
// failOff is non-zero every LoadBytes covering base+failOff fails on
// both. After every Step the return values, the job state and the
// machines' RAM must be equal, and a Step that succeeds must have
// issued at most one LoadBytes. It stops at the first error and returns
// it, or nil once the job is done.
func matchWordLoop(t *testing.T, im *telf.Image, base uint32, ramSize uint32, budgets []uint64, failOff uint32) error {
	t.Helper()
	ms := [2]*machine.Machine{stepMachine(t, ramSize), stepMachine(t, ramSize)}
	var jobs [2]*Job
	var mems [2]*countingMem
	for i, m := range ms {
		var mem Memory = m
		if failOff != 0 {
			mem = &faultyMem{Memory: m, failLoadAddr: base + failOff}
		}
		mems[i] = &countingMem{Memory: mem}
		jobs[i] = NewJob(mems[i], im, base)
	}
	ref, got := jobs[0], jobs[1]
	// RAM is compared over the placement and 64 bytes either side.
	lo, hi := base-64, min(base+ref.p.Size()+64, machine.RAMBase+ramSize)
	for step := 0; ; step++ {
		budget := budgets[step%len(budgets)]
		ur, er := wordLoopStep(ref, budget)
		mems[1].loads = 0
		ug, eg := got.Step(budget)
		tag := fmt.Sprintf("step %d (budget %d)", step, budget)
		if ug != ur || fmt.Sprint(eg) != fmt.Sprint(er) {
			t.Fatalf("%s: Step = (%d, %v), word loop = (%d, %v)", tag, ug, eg, ur, er)
		}
		if eg == nil && mems[1].loads > 1 {
			t.Fatalf("%s: Step issued %d LoadBytes, want at most one", tag, mems[1].loads)
		}
		if got.Phase() != ref.Phase() || got.pos != ref.pos || got.reloc != ref.reloc {
			t.Fatalf("%s: phase/pos/reloc %v/%d/%d, word loop %v/%d/%d",
				tag, got.Phase(), got.pos, got.reloc, ref.Phase(), ref.pos, ref.reloc)
		}
		if got.CopyCost() != ref.CopyCost() || got.ZeroCost() != ref.ZeroCost() || got.RelocCost() != ref.RelocCost() {
			t.Fatalf("%s: copy/zero/reloc cost %d/%d/%d, word loop %d/%d/%d", tag,
				got.CopyCost(), got.ZeroCost(), got.RelocCost(), ref.CopyCost(), ref.ZeroCost(), ref.RelocCost())
		}
		if got.touchedExtent() != ref.touchedExtent() {
			t.Fatalf("%s: touched extent %d, word loop %d", tag, got.touchedExtent(), ref.touchedExtent())
		}
		rr, _ := ramBytes(ms[0], lo, hi-lo)
		rg, _ := ramBytes(ms[1], lo, hi-lo)
		if i := firstDiff(rg, rr); i >= 0 {
			t.Fatalf("%s: RAM at %#x = %#x, word loop %#x", tag, lo+uint32(i), rg[i], rr[i])
		}
		if er != nil || ref.Done() {
			return er
		}
		if step > 1<<20 {
			t.Fatal("job did not finish")
		}
	}
}

// countingMem counts the LoadBytes calls that reach it.
type countingMem struct {
	Memory
	loads int
}

func (c *countingMem) LoadBytes(addr uint32, b []byte) error {
	c.loads++
	return c.Memory.LoadBytes(addr, b)
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestJobStepMatchesWordLoop pins the batched copy phase to the word
// loop: every budget on every blob shape, one budget per run and all of
// them in turn, a copy that fails mid-blob in the loader's memory and
// one that runs off the end of RAM.
func TestJobStepMatchesWordLoop(t *testing.T) {
	for _, bl := range stepBlobs {
		im := stepImage(bl[0], bl[1])
		for _, budget := range stepBudgets {
			t.Run(fmt.Sprintf("blob=%d+%d/budget=%d", bl[0], bl[1], budget), func(t *testing.T) {
				matchWordLoop(t, im, stepBase, 64<<10, []uint64{budget}, 0)
			})
		}
		t.Run(fmt.Sprintf("blob=%d+%d/mixed", bl[0], bl[1]), func(t *testing.T) {
			matchWordLoop(t, im, stepBase, 64<<10, stepBudgets, 0)
		})
	}
	im := stepImage(56, 11602)
	for _, budget := range stepBudgets {
		t.Run(fmt.Sprintf("fault/budget=%d", budget), func(t *testing.T) {
			if err := matchWordLoop(t, im, stepBase, 64<<10, []uint64{budget}, 4_098); !errors.Is(err, errInjected) {
				t.Fatalf("load ended with %v, want the injected fault", err)
			}
		})
		// The last 4 KiB of a 16 KiB RAM: the bus refuses the copy at
		// offset 4,096, naming the first address past RAM.
		t.Run(fmt.Sprintf("ram-end/budget=%d", budget), func(t *testing.T) {
			const ram = 16 << 10
			var be *machine.BusError
			if err := matchWordLoop(t, im, machine.RAMBase+ram-4096, ram, []uint64{budget}, 0); !errors.As(err, &be) {
				t.Fatalf("load ended with %v, want a bus error", err)
			}
		})
	}
}

// FuzzJobStep drives the same oracle over a fuzzed blob length (mod
// 12 KiB), budget sequence (little-endian uint64s; a short tail is
// zero-padded) and fault offset (0: no fault; past the blob: never hit).
func FuzzJobStep(f *testing.F) {
	for _, bl := range stepBlobs {
		for _, budget := range stepBudgets {
			f.Add(uint16(bl[0]+bl[1]), binary.LittleEndian.AppendUint64(nil, budget), uint16(0))
		}
	}
	f.Add(uint16(11658), binary.LittleEndian.AppendUint64(nil, 4096), uint16(4098))
	f.Fuzz(func(t *testing.T, blobLen uint16, seq []byte, failOff uint16) {
		var budgets []uint64
		for len(seq) > 0 && len(budgets) < 64 {
			var w [8]byte
			n := copy(w[:], seq)
			seq = seq[n:]
			budgets = append(budgets, binary.LittleEndian.Uint64(w[:]))
		}
		if len(budgets) == 0 {
			budgets = []uint64{0}
		}
		n := int(blobLen) % (12 << 10) // up to just past the t2-sized blob
		text := min(n, 56)
		matchWordLoop(t, stepImage(text, n-text), stepBase, 64<<10, budgets, uint32(failOff))
	})
}

// resetJob rewinds job to the state NewJob gave it, reusing its blob,
// so the benchmark and the allocation test time Step alone.
func resetJob(job *Job) {
	*job = Job{mem: job.mem, p: job.p, blob: job.blob}
}

// runJob drives job to completion at the loader service's quantum.
func runJob(t testing.TB, job *Job) {
	for !job.Done() {
		if _, err := job.Step(jobQuantum); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkJobStep loads a t2-sized image (56 B text, 11,600 B data)
// through Step at the loader service's 4,096-cycle quantum, as the use
// case's interruptible load does, and reports ns per KB of text ‖ data.
func BenchmarkJobStep(b *testing.B) {
	job := NewJob(stepMachine(b, 64<<10), stepImage(56, 11600), stepBase)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetJob(job)
		runJob(b, job)
	}
	kb := float64(len(job.blob)) / 1024
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/kb, "ns/KB")
}

// TestJobStepAllocs pins Step at zero allocations once NewJob has built
// the job: a whole t2-sized load at the loader quantum allocates nothing.
func TestJobStepAllocs(t *testing.T) {
	job := NewJob(stepMachine(t, 64<<10), stepImage(56, 11600), stepBase)
	if n := testing.AllocsPerRun(20, func() { resetJob(job); runJob(t, job) }); n != 0 {
		t.Fatalf("a t2-sized load through Step allocated %.1f times, want 0", n)
	}
}
