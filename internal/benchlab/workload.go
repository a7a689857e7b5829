package benchlab

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/telf"
)

// Workload generators: synthetic task images with precisely controlled
// measured size and relocation structure, plus the assembly programs of
// the adaptive-cruise-control use case.

// GenImage builds a loadable image whose measured size (text ‖ data) is
// exactly measuredBytes, carrying one relocation per entry of kinds
// (cycled offsets through the data section). The program body is a
// single HLT so the task exits immediately if ever scheduled.
func GenImage(name string, measuredBytes int, kinds []telf.RelocKind) *telf.Image {
	var prog isa.Program
	prog.Emit(isa.Instruction{Op: isa.OpHLT})
	text := prog.Bytes()
	if measuredBytes < len(text) {
		panic(fmt.Sprintf("benchlab: measured size %d smaller than text", measuredBytes))
	}
	im := &telf.Image{
		Name:      name,
		Text:      text,
		Data:      make([]byte, measuredBytes-len(text)),
		StackSize: 128,
		BSSSize:   28,
	}
	// Place relocations at increasing word offsets in the data section.
	// The stored value is an image-relative offset (0 = entry), exactly
	// what the loader rebases and the RTM reverts.
	off := uint32(len(text))
	for _, k := range kinds {
		if off+4 > uint32(measuredBytes) {
			panic("benchlab: too many relocations for image size")
		}
		im.Relocs = append(im.Relocs, telf.Reloc{Offset: off, Kind: k})
		off += 4
	}
	if err := im.Validate(); err != nil {
		panic("benchlab: generated invalid image: " + err.Error())
	}
	return im
}

// CanonicalCreationImage reproduces the Table 4 workload: a task of
// 3,962 bytes with 9 relocations ("With 9 relocations and a memory
// size of 3,962 Bytes", footnote 11).
func CanonicalCreationImage() *telf.Image {
	kinds := make([]telf.RelocKind, 9)
	for i := range kinds {
		kinds[i] = telf.RelocKind(i % 3)
	}
	return GenImage("canonical", 3962, kinds)
}

// controlTaskSrc is the engine-control task t0 of the use case: sample
// the pedal and radar sensors, command the engine with a tagged value,
// sleep one scheduling period.
func controlTaskSrc(tag int, periodCycles int) string {
	return fmt.Sprintf(`
.task "t%d"
.entry main
.stack 192
.bss 28
.text
main:
    ldi32 r6, 0xF0000200   ; pedal sensor
    ldi32 r5, 0xF0000300   ; radar sensor
    ldi32 r4, 0xF0000500   ; engine actuator
loop:
    ld r0, [r6+0]
    ld r1, [r5+0]
    add r0, r1
    ldi r2, %d             ; activation tag
    st [r4+0], r2
    ldi r0, %d
    svc 2                  ; sleep one period
    jmp loop
`, tag, tag, periodCycles)
}

// useCaseImageCache memoizes assembled use-case task images: the
// benchmark harness rebuilds the same two or three programs for every
// measurement, and the assembler is a noticeable share of host time.
var useCaseImageCache = map[[2]int]*telf.Image{}

// UseCaseTaskImage assembles one of the use-case tasks. Each activation
// writes its tag to the engine actuator, timestamping it in simulated
// time. The result is a private shallow copy (callers rename it and
// append to Data); the slices are capacity-capped so an append cannot
// reach back into the cached image.
func UseCaseTaskImage(tag int, periodCycles int) *telf.Image {
	key := [2]int{tag, periodCycles}
	im, ok := useCaseImageCache[key]
	if !ok {
		var err error
		im, err = asm.Assemble(controlTaskSrc(tag, periodCycles))
		if err != nil {
			panic("benchlab: use-case task: " + err.Error())
		}
		useCaseImageCache[key] = im
	}
	out := *im
	out.Text = im.Text[:len(im.Text):len(im.Text)]
	out.Data = im.Data[:len(im.Data):len(im.Data)]
	out.Relocs = im.Relocs[:len(im.Relocs):len(im.Relocs)]
	return &out
}

// UseCaseT2Image builds the on-demand radar task t2, padded so that its
// load (streaming + relocation + measurement) totals approximately the
// paper's 27.8 ms of work at 48 MHz.
func UseCaseT2Image(tag int, periodCycles int) *telf.Image {
	base := UseCaseTaskImage(tag, periodCycles)
	base.Name = "t2"
	// Pad the data section: each byte adds ≈ 50 cycles of streaming and
	// ≈ 61.5 cycles of measurement. Sizing for ≈ 1,334,400 total work.
	base.Data = append(base.Data, make([]byte, 11_600)...)
	return base
}
