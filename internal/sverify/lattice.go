package sverify

import "repro/internal/isa"

// The register value lattice the abstract interpreter (absint.go)
// propagates through straight-line runs of decoded instructions.
//
// The lattice is deliberately shallow: a register is Top (unknown), a
// constant (optionally tagged as an image-relative, relocated address),
// or an SP-relative offset. Joins of unequal values go straight to Top,
// which keeps fixpoints fast and all derived verdicts one-sided: a
// proven value means *provably* that value, Top means nothing.

// valKind classifies an abstract value.
type valKind uint8

// Value kinds.
const (
	// kindTop is the unknown value (the lattice top). The zero absValue
	// is Top.
	kindTop valKind = iota
	// kindConst is a known 32-bit value; Reloc marks it image-relative.
	kindConst
	// kindStack is an SP-relative offset: V holds the signed delta from
	// the initial stack pointer.
	kindStack
)

// absValue is one abstract register value.
type absValue struct {
	K     valKind
	V     uint32
	Reloc bool
}

// constValue returns a known absolute constant.
func constValue(v uint32) absValue { return absValue{K: kindConst, V: v} }

// relocValue returns a known image-relative constant (the loader adds
// the placement base).
func relocValue(v uint32) absValue { return absValue{K: kindConst, V: v, Reloc: true} }

// stackValue returns an SP-relative offset.
func stackValue(delta int32) absValue { return absValue{K: kindStack, V: uint32(delta)} }

// delta returns the signed stack delta of a Stack value.
func (a absValue) delta() int32 { return int32(a.V) }

// isConst reports whether the value is a known absolute (non-relocated)
// constant.
func (a absValue) isConst() bool { return a.K == kindConst && !a.Reloc }

// joinValue is the lattice join: equal values survive, everything else
// goes to Top.
func joinValue(a, b absValue) absValue {
	if a == b {
		return a
	}
	return absValue{}
}

// addValue adds two abstract values. Adding a plain constant to a
// relocated address keeps the relocation provenance (pointer arithmetic
// within the image); adding two pointers is meaningless and degrades to
// Top.
func addValue(a, b absValue) absValue {
	switch {
	case a.K == kindStack && b.K == kindConst && !b.Reloc:
		return stackValue(a.delta() + int32(b.V))
	case b.K == kindStack && a.K == kindConst && !a.Reloc:
		return stackValue(b.delta() + int32(a.V))
	case a.K == kindConst && b.K == kindConst:
		if a.Reloc && b.Reloc {
			return absValue{}
		}
		return absValue{K: kindConst, V: a.V + b.V, Reloc: a.Reloc || b.Reloc}
	}
	return absValue{}
}

// subValue subtracts abstract values: pointer−constant stays a pointer,
// pointer−pointer is a plain distance, constant−pointer is opaque.
func subValue(a, b absValue) absValue {
	if a.K == kindStack && b.K == kindConst && !b.Reloc {
		return stackValue(a.delta() - int32(b.V))
	}
	if a.K != kindConst || b.K != kindConst {
		return absValue{}
	}
	switch {
	case a.Reloc && b.Reloc:
		return constValue(a.V - b.V)
	case !a.Reloc && b.Reloc:
		return absValue{}
	default:
		return absValue{K: kindConst, V: a.V - b.V, Reloc: a.Reloc}
	}
}

// bitsValue applies a bitwise/multiplicative op: only meaningful on two
// plain constants (masking a pointer yields an unpredictable address).
func bitsValue(a, b absValue, f func(a, b uint32) uint32) absValue {
	if a.isConst() && b.isConst() {
		return constValue(f(a.V, b.V))
	}
	return absValue{}
}

// absRegs is the abstract register file at one program point.
type absRegs [isa.NumRegs]absValue

// transferRegs applies the register effect of one instruction to regs.
// ldi32Reloc marks the LDI32 immediate as a relocated (image-relative)
// address. Control transfers have no register effect here except RET's
// stack pop; CALL's callee-side SP adjustment is an edge effect the
// flow function models.
func transferRegs(in isa.Instruction, regs *absRegs, ldi32Reloc bool) {
	switch in.Op {
	case isa.OpMOV:
		regs[in.Rd] = regs[in.Rs]
	case isa.OpLDI:
		regs[in.Rd] = constValue(uint32(int32(in.Imm)))
	case isa.OpLUI:
		regs[in.Rd] = constValue(uint32(uint16(in.Imm)) << 16)
	case isa.OpLDI32:
		if ldi32Reloc {
			regs[in.Rd] = relocValue(in.Imm32)
		} else {
			regs[in.Rd] = constValue(in.Imm32)
		}
	case isa.OpLD, isa.OpLDB:
		regs[in.Rd] = absValue{}
	case isa.OpADD:
		regs[in.Rd] = addValue(regs[in.Rd], regs[in.Rs])
	case isa.OpSUB:
		if in.Rd == in.Rs {
			regs[in.Rd] = constValue(0) // clr idiom
		} else {
			regs[in.Rd] = subValue(regs[in.Rd], regs[in.Rs])
		}
	case isa.OpADDI:
		regs[in.Rd] = addValue(regs[in.Rd], constValue(uint32(int32(in.Imm))))
	case isa.OpXOR:
		if in.Rd == in.Rs {
			regs[in.Rd] = constValue(0) // clr idiom
		} else {
			regs[in.Rd] = bitsValue(regs[in.Rd], regs[in.Rs], func(a, b uint32) uint32 { return a ^ b })
		}
	case isa.OpAND:
		regs[in.Rd] = bitsValue(regs[in.Rd], regs[in.Rs], func(a, b uint32) uint32 { return a & b })
	case isa.OpOR:
		regs[in.Rd] = bitsValue(regs[in.Rd], regs[in.Rs], func(a, b uint32) uint32 { return a | b })
	case isa.OpSHL:
		regs[in.Rd] = bitsValue(regs[in.Rd], regs[in.Rs], func(a, b uint32) uint32 { return a << (b & 31) })
	case isa.OpSHR:
		regs[in.Rd] = bitsValue(regs[in.Rd], regs[in.Rs], func(a, b uint32) uint32 { return a >> (b & 31) })
	case isa.OpMUL:
		regs[in.Rd] = bitsValue(regs[in.Rd], regs[in.Rs], func(a, b uint32) uint32 { return a * b })
	case isa.OpPUSH:
		regs[isa.SP] = addValue(regs[isa.SP], constValue(^uint32(3))) // -4
	case isa.OpPOP:
		regs[in.Rd] = absValue{}
		regs[isa.SP] = addValue(regs[isa.SP], constValue(4))
	case isa.OpRET:
		regs[isa.SP] = addValue(regs[isa.SP], constValue(4))
	case isa.OpSVC:
		// Service results land in r0/r1 (gettime, IPC lengths).
		regs[isa.R0] = absValue{}
		regs[isa.R1] = absValue{}
	case isa.OpRDCYC:
		regs[in.Rd] = absValue{}
	}
}
