package isa

import (
	"encoding/binary"
	"fmt"
)

// Instruction word layout (little-endian 32-bit word):
//
//	bits 31..24  opcode
//	bits 23..20  rd
//	bits 19..16  rs
//	bits 15..0   imm16
//
// LDI32 is followed by a second little-endian word holding Imm32. That
// second word is the target of loader relocations (see internal/telf).

// ErrTruncated is returned by Decode when the byte slice ends inside an
// instruction.
var ErrTruncated = fmt.Errorf("isa: truncated instruction")

// Encode appends the encoding of in to dst and returns the extended
// slice. Encode panics if the instruction uses an undefined opcode or an
// out-of-range register; instructions are produced by the assembler or
// by tests, so a malformed one is a programming error.
func Encode(dst []byte, in Instruction) []byte {
	if !in.Op.Valid() {
		panic(fmt.Sprintf("isa: encode of invalid opcode %#x", uint8(in.Op)))
	}
	if in.Rd >= NumRegs || in.Rs >= NumRegs {
		panic(fmt.Sprintf("isa: encode of invalid register in %v", in))
	}
	w := uint32(in.Op)<<24 | uint32(in.Rd)<<20 | uint32(in.Rs)<<16 | uint32(uint16(in.Imm))
	dst = binary.LittleEndian.AppendUint32(dst, w)
	if in.Op == OpLDI32 {
		dst = binary.LittleEndian.AppendUint32(dst, in.Imm32)
	}
	return dst
}

// Decode decodes the instruction starting at b[0]. It returns the
// instruction and the number of bytes consumed. An undefined opcode
// decodes successfully (so the CPU can raise an illegal-instruction
// fault with full information); callers should check Op.Valid.
func Decode(b []byte) (Instruction, int, error) {
	if len(b) < 4 {
		return Instruction{}, 0, ErrTruncated
	}
	w := binary.LittleEndian.Uint32(b)
	in := Instruction{
		Op:  Op(w >> 24),
		Rd:  Reg(w >> 20 & 0xF),
		Rs:  Reg(w >> 16 & 0xF),
		Imm: int16(w),
	}
	// Register fields are 4 bits wide but only 8 registers exist; an
	// out-of-range register makes the word an illegal instruction.
	if in.Rd >= NumRegs || in.Rs >= NumRegs {
		in.Op = numOps // guaranteed invalid
	}
	if in.Op == OpLDI32 {
		if len(b) < 8 {
			return Instruction{}, 0, ErrTruncated
		}
		in.Imm32 = binary.LittleEndian.Uint32(b[4:])
		return in, 8, nil
	}
	return in, 4, nil
}

// Program is a convenience builder that accumulates encoded
// instructions, used by tests and by hand-written firmware stubs.
type Program struct {
	buf []byte
}

// Emit appends one instruction and returns the builder for chaining.
func (p *Program) Emit(in Instruction) *Program {
	p.buf = Encode(p.buf, in)
	return p
}

// Bytes returns the encoded program.
func (p *Program) Bytes() []byte { return p.buf }
