package sverify

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/telf"
)

// Seeded image generator for the differential soundness tests and the
// fuzz seed corpus: GenClean produces images the verifier must pass and
// the simulator must run without faults; the fault classes produce
// images with at least one Definite error that must actually trap.
// Everything derives from the seed through splitmix64, so the corpus is
// reproducible byte for byte.

// GenClass selects what kind of image GenImage builds.
type GenClass int

// Generator classes.
const (
	// GenClean: ALU work, relocated loads/stores inside the extent,
	// balanced push/pop, allowed service calls, a bounded forward
	// branch, then a delay loop or HLT. Verifies clean; runs clean.
	GenClean GenClass = iota
	// GenInvalidOpcode places an undecodable word on the entry path.
	GenInvalidOpcode
	// GenBadSyscall places a service call outside the allowlist on the
	// entry path (the kernel kills the task).
	GenBadSyscall
	// GenWildStore stores through a relocated pointer beyond the end of
	// RAM (bus error at any load address).
	GenWildStore
	// GenMisaligned loads a 32-bit word through a relocated pointer at
	// a non-word-aligned image offset (bus error).
	GenMisaligned
	// GenBranchMidInsn jumps into the immediate word of an LDI32 whose
	// payload is not a valid instruction (illegal-instruction fault).
	GenBranchMidInsn

	// GenCountedLoop spins a counted loop (seeded count and direction)
	// and calls a small balanced helper. Verifies clean with a proven
	// stack and cycle bound; runs clean.
	GenCountedLoop
	// GenRecursionBounded recurses with a counter decrement and a CMPI
	// guard the bounded-recursion prover certifies. Runs clean.
	GenRecursionBounded
	// GenRecursionInfinite recurses with no guard on the must-execute
	// path: a Definite recursion error, and the stack provably overruns
	// its reservation at runtime.
	GenRecursionInfinite
	// GenIndirectCall calls through a register holding a relocated
	// function address the value lattice resolves. Bounded; runs clean.
	GenIndirectCall
	// GenIndirectCallOpaque launders the function address through
	// memory, so the call target is dynamically fine but statically
	// opaque: the image runs clean yet its bounds are Unbounded.
	GenIndirectCallOpaque
	// GenSPManip saves and restores SP through a scratch register: the
	// restore is a computed stack pointer, so the stack bound is
	// Unbounded even though the image runs clean.
	GenSPManip

	// NumGenClasses counts the classes (for corpus loops).
	NumGenClasses
)

// String names the class.
func (c GenClass) String() string {
	switch c {
	case GenClean:
		return "clean"
	case GenInvalidOpcode:
		return "invalid-opcode"
	case GenBadSyscall:
		return "bad-syscall"
	case GenWildStore:
		return "wild-store"
	case GenMisaligned:
		return "misaligned"
	case GenBranchMidInsn:
		return "branch-mid-insn"
	case GenCountedLoop:
		return "counted-loop"
	case GenRecursionBounded:
		return "recursion-bounded"
	case GenRecursionInfinite:
		return "recursion-infinite"
	case GenIndirectCall:
		return "indirect-call"
	case GenIndirectCallOpaque:
		return "indirect-call-opaque"
	case GenSPManip:
		return "sp-manip"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// genRand is a splitmix64 stream (matching internal/faultinject's
// choice of PRNG; reimplemented because that package is a consumer of
// the loader, not a dependency of it).
type genRand uint64

func (g *genRand) next() uint64 {
	*g += 0x9e3779b97f4a7c15
	z := uint64(*g)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *genRand) intn(n int) int { return int(g.next() % uint64(n)) }

// genPatch defers an LDI32 immediate whose value depends on the final
// text length (data- and bss-relative addresses).
type genPatch struct {
	off uint32                      // offset of the immediate word
	f   func(textLen uint32) uint32 // final value
}

type genBuilder struct {
	text    []byte
	relocs  []telf.Reloc
	patches []genPatch
}

func (b *genBuilder) off() uint32 { return uint32(len(b.text)) }

func (b *genBuilder) emit(in isa.Instruction) {
	b.text = isa.Encode(b.text, in)
}

// emitPtr emits a relocated LDI32 whose immediate is computed from the
// final text length once known.
func (b *genBuilder) emitPtr(rd isa.Reg, f func(textLen uint32) uint32) {
	imm := b.off() + 4
	b.emit(isa.Instruction{Op: isa.OpLDI32, Rd: rd})
	b.relocs = append(b.relocs, telf.Reloc{Offset: imm, Kind: telf.RelImm32})
	b.patches = append(b.patches, genPatch{off: imm, f: f})
}

// raw appends one raw word (for deliberately undecodable payloads).
func (b *genBuilder) raw(w uint32) {
	b.text = binary.LittleEndian.AppendUint32(b.text, w)
}

// jmpTo emits an unconditional jump to an already-emitted offset.
func (b *genBuilder) jmpTo(target uint32) {
	delta := (int64(target) - int64(b.off()+4)) / 4
	b.emit(isa.Instruction{Op: isa.OpJMP, Imm: int16(delta)})
}

// branchTo emits a conditional branch (or CALL) to an already-emitted
// offset.
func (b *genBuilder) branchTo(op isa.Op, target uint32) {
	delta := (int64(target) - int64(b.off()+4)) / 4
	b.emit(isa.Instruction{Op: op, Imm: int16(delta)})
}

// epilogue ends the image the way GenClean always has: halt, or a
// periodic delay loop (bounded bursts — every burst ends at the SVC).
func (b *genBuilder) epilogue(r *genRand) {
	if r.intn(2) == 0 {
		b.emit(isa.Instruction{Op: isa.OpHLT})
	} else {
		loop := b.off()
		b.emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R0, Imm: int16(16000 + r.intn(16000))})
		b.emit(isa.Instruction{Op: isa.OpSVC, Imm: 2}) // delay
		b.jmpTo(loop)
	}
}

const (
	genDataSize  = 16
	genBSSSize   = 64
	genStackSize = 256
)

// GenImage builds the seeded image of the given class. The result
// passes telf.Validate for every class — the fault classes are
// structurally well-formed images whose *code* is broken, exactly the
// kind the pre-load gate exists to refuse.
func GenImage(class GenClass, seed uint64) *telf.Image {
	r := genRand(seed ^ uint64(class)<<56)
	b := &genBuilder{}

	// Warm-up ALU prefix (seeded length, keeps every image distinct).
	for i, n := 0, 1+r.intn(4); i < n; i++ {
		b.emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: int16(r.intn(1000))})
		b.emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R1, Imm: int16(1 + r.intn(16))})
	}
	b.emit(isa.Instruction{Op: isa.OpXOR, Rd: isa.R3, Rs: isa.R3}) // clr r3

	switch class {
	case GenClean:
		// Relocated load/store inside the data section, a store into
		// BSS, balanced stack use, a forward branch, a putchar.
		word := uint32(4 * r.intn(genDataSize/4))
		b.emitPtr(isa.R4, func(t uint32) uint32 { return t + word })
		b.emit(isa.Instruction{Op: isa.OpLD, Rd: isa.R0, Rs: isa.R4})
		b.emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R0, Imm: 1})
		b.emit(isa.Instruction{Op: isa.OpST, Rd: isa.R4, Rs: isa.R0})
		bssWord := uint32(4 * r.intn(genBSSSize/4))
		b.emitPtr(isa.R5, func(t uint32) uint32 { return t + genDataSize + bssWord })
		b.emit(isa.Instruction{Op: isa.OpST, Rd: isa.R5, Rs: isa.R1})
		b.emit(isa.Instruction{Op: isa.OpPUSH, Rs: isa.R1})
		b.emit(isa.Instruction{Op: isa.OpPOP, Rd: isa.R2})
		b.emit(isa.Instruction{Op: isa.OpCMPI, Rd: isa.R0, Imm: int16(r.intn(7))})
		b.emit(isa.Instruction{Op: isa.OpBEQ, Imm: 1}) // skip one insn
		b.emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R3, Imm: 1})
		b.emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: int16('A' + r.intn(26))})
		b.emit(isa.Instruction{Op: isa.OpSVC, Imm: 5}) // putchar
		b.epilogue(&r)

	case GenInvalidOpcode:
		b.raw(0xFF000000 | uint32(r.next()&0xFFFF)) // op 0xFF: undecodable
		b.emit(isa.Instruction{Op: isa.OpHLT})

	case GenBadSyscall:
		bad := []int16{3, 4, 7, 9, 11, 15}
		b.emit(isa.Instruction{Op: isa.OpSVC, Imm: bad[r.intn(len(bad))]})
		b.emit(isa.Instruction{Op: isa.OpHLT})

	case GenWildStore:
		b.emitPtr(isa.R4, func(t uint32) uint32 {
			return machine.DefaultRAMSize + t + uint32(r.intn(256))*4
		})
		b.emit(isa.Instruction{Op: isa.OpST, Rd: isa.R4, Rs: isa.R0})
		b.emit(isa.Instruction{Op: isa.OpHLT})

	case GenMisaligned:
		b.emitPtr(isa.R4, func(t uint32) uint32 { return t + 2 }) // data+2: never word-aligned
		b.emit(isa.Instruction{Op: isa.OpLD, Rd: isa.R0, Rs: isa.R4})
		b.emit(isa.Instruction{Op: isa.OpHLT})

	case GenBranchMidInsn:
		b.emit(isa.Instruction{Op: isa.OpJMP, Imm: 1}) // into the LDI32 immediate
		b.emit(isa.Instruction{Op: isa.OpLDI32, Rd: isa.R1, Imm32: 0xFFFFFFFF})
		b.emit(isa.Instruction{Op: isa.OpHLT})

	case GenCountedLoop:
		// A counted spin loop (seeded count and direction) and a call to
		// a balanced helper: the canonical shapes the resource-bound
		// engine certifies.
		count := int16(20 + r.intn(200))
		if r.intn(2) == 0 { // count down to zero
			b.emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R2, Imm: count})
			spin := b.off()
			b.emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R2, Imm: -1})
			b.emit(isa.Instruction{Op: isa.OpCMPI, Rd: isa.R2, Imm: 0})
			b.branchTo(isa.OpBNE, spin)
		} else { // count up to the limit
			b.emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R2, Imm: 0})
			spin := b.off()
			b.emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R2, Imm: 1})
			b.emit(isa.Instruction{Op: isa.OpCMPI, Rd: isa.R2, Imm: count})
			b.branchTo(isa.OpBLT, spin)
		}
		b.emit(isa.Instruction{Op: isa.OpCALL, Imm: 1}) // over the jmp, into the helper
		b.emit(isa.Instruction{Op: isa.OpJMP, Imm: 4})  // over the 4-instruction helper
		b.emit(isa.Instruction{Op: isa.OpPUSH, Rs: isa.R1})
		b.emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R1, Imm: 3})
		b.emit(isa.Instruction{Op: isa.OpPOP, Rd: isa.R1})
		b.emit(isa.Instruction{Op: isa.OpRET})
		b.emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: int16('a' + r.intn(26))})
		b.emit(isa.Instruction{Op: isa.OpSVC, Imm: 5}) // putchar
		b.epilogue(&r)

	case GenRecursionBounded:
		// f(n): if n != 0 { n--; f(n) } — a decrement and a CMPI guard
		// the bounded-recursion prover certifies from the counter's
		// constant at the external call site.
		depth := int16(3 + r.intn(6))
		b.emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R2, Imm: depth})
		b.emit(isa.Instruction{Op: isa.OpCALL, Imm: 1})             // over the jmp, into f
		b.emit(isa.Instruction{Op: isa.OpJMP, Imm: 5})              // over the 5-instruction f
		b.emit(isa.Instruction{Op: isa.OpCMPI, Rd: isa.R2, Imm: 0}) // f:
		b.emit(isa.Instruction{Op: isa.OpBEQ, Imm: 2})              // done: skip to ret
		b.emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R2, Imm: -1})
		b.emit(isa.Instruction{Op: isa.OpCALL, Imm: -4}) // f, recursively
		b.emit(isa.Instruction{Op: isa.OpRET})
		b.emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: int16('r' - r.intn(10))})
		b.emit(isa.Instruction{Op: isa.OpSVC, Imm: 5}) // putchar
		b.epilogue(&r)

	case GenRecursionInfinite:
		// f: f() — unguarded self-recursion on the must-execute path;
		// the return-address pushes march SP out of the task's region.
		b.emit(isa.Instruction{Op: isa.OpCALL, Imm: 1})             // over the jmp, into f
		b.emit(isa.Instruction{Op: isa.OpJMP, Imm: 3})              // over the 3-instruction f
		b.emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R1, Imm: 1}) // f:
		b.emit(isa.Instruction{Op: isa.OpCALL, Imm: -2})            // f, unconditionally
		b.emit(isa.Instruction{Op: isa.OpRET})
		b.emit(isa.Instruction{Op: isa.OpHLT})

	case GenIndirectCall:
		// CALLR through a relocated function address held in a register:
		// the value lattice names the target, so the call graph (and the
		// bounds) cover the helper.
		var helperOff uint32
		b.emitPtr(isa.R4, func(uint32) uint32 { return helperOff })
		b.emit(isa.Instruction{Op: isa.OpCALLR, Rs: isa.R4})
		b.emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: int16('A' + r.intn(26))})
		b.emit(isa.Instruction{Op: isa.OpSVC, Imm: 5}) // putchar
		b.epilogue(&r)
		helperOff = b.off()
		b.emit(isa.Instruction{Op: isa.OpPUSH, Rs: isa.R1})
		b.emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.R1, Imm: 7})
		b.emit(isa.Instruction{Op: isa.OpPOP, Rd: isa.R1})
		b.emit(isa.Instruction{Op: isa.OpRET})

	case GenIndirectCallOpaque:
		// The same call, but the address is laundered through a BSS
		// slot: dynamically identical, statically opaque — the bounds
		// must degrade to Unbounded, never to a wrong number.
		var helperOff uint32
		slot := uint32(4 * r.intn(genBSSSize/4))
		b.emitPtr(isa.R4, func(uint32) uint32 { return helperOff })
		b.emitPtr(isa.R5, func(t uint32) uint32 { return t + genDataSize + slot })
		b.emit(isa.Instruction{Op: isa.OpST, Rd: isa.R5, Rs: isa.R4})
		b.emit(isa.Instruction{Op: isa.OpLD, Rd: isa.R6, Rs: isa.R5})
		b.emit(isa.Instruction{Op: isa.OpCALLR, Rs: isa.R6})
		b.emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: int16('A' + r.intn(26))})
		b.emit(isa.Instruction{Op: isa.OpSVC, Imm: 5}) // putchar
		b.epilogue(&r)
		helperOff = b.off()
		b.emit(isa.Instruction{Op: isa.OpPUSH, Rs: isa.R1})
		b.emit(isa.Instruction{Op: isa.OpPOP, Rd: isa.R1})
		b.emit(isa.Instruction{Op: isa.OpRET})

	case GenSPManip:
		// Save SP to a scratch register, adjust, restore: the restore is
		// a computed stack pointer — dynamically exact, statically
		// unanalyzable, so the stack bound must degrade to Unbounded.
		b.emit(isa.Instruction{Op: isa.OpMOV, Rd: isa.R6, Rs: isa.SP})
		b.emit(isa.Instruction{Op: isa.OpADDI, Rd: isa.SP, Imm: int16(-8 * (1 + r.intn(3)))})
		b.emit(isa.Instruction{Op: isa.OpMOV, Rd: isa.SP, Rs: isa.R6})
		b.emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: int16('A' + r.intn(26))})
		b.emit(isa.Instruction{Op: isa.OpSVC, Imm: 5}) // putchar
		b.epilogue(&r)
	}

	textLen := b.off()
	for _, p := range b.patches {
		binary.LittleEndian.PutUint32(b.text[p.off:], p.f(textLen))
	}
	data := make([]byte, genDataSize)
	for i := range data {
		data[i] = byte(r.next())
	}
	return &telf.Image{
		Name:      fmt.Sprintf("gen-%s-%d", class, seed),
		Entry:     0,
		Text:      b.text,
		Data:      data,
		BSSSize:   genBSSSize,
		StackSize: genStackSize,
		Relocs:    b.relocs,
	}
}
