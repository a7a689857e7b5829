// Package isa defines the instruction set of the simulated 32-bit
// embedded core used throughout this repository.
//
// The core is a small load/store machine in the spirit of the Intel
// Siskiyou Peak platform the TyTAN paper targets: a flat, physical
// addressing model, eight general-purpose registers, an instruction
// pointer (EIP) and a flags register (EFLAGS). Instructions are encoded
// as fixed 32-bit words; the single exception is LDI32, which carries a
// full 32-bit immediate in a second word so that absolute addresses can
// be materialized (and relocated) in one instruction.
//
// The register and flag names deliberately follow the paper's x86-ish
// vocabulary (EIP, EFLAGS) so that the description of interrupt entry in
// §4 of the paper maps one-to-one onto this model.
package isa

import "fmt"

// Reg identifies one of the eight general-purpose registers R0..R7.
// By software convention R7 is the stack pointer (SP).
type Reg uint8

// General-purpose registers. R7 doubles as the stack pointer.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7

	// NumRegs is the number of general-purpose registers.
	NumRegs = 8

	// SP is the conventional stack pointer register.
	SP = R7
)

// String returns the assembler name of the register.
func (r Reg) String() string {
	if r == SP {
		return "sp"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// EFLAGS bits set by CMP/CMPI and arithmetic instructions.
const (
	FlagZ uint32 = 1 << 0 // zero: operands equal
	FlagN uint32 = 1 << 1 // negative: signed less-than
	FlagC uint32 = 1 << 2 // carry: unsigned less-than (borrow)
)

// Op is an operation code. Opcodes occupy the top byte of an encoded
// instruction word.
type Op uint8

// Instruction opcodes.
const (
	OpNOP Op = iota
	OpHLT
	OpMOV   // MOV rd, rs       : rd = rs
	OpLDI   // LDI rd, simm16   : rd = sign-extended imm
	OpLUI   // LUI rd, imm16    : rd = imm << 16
	OpLDI32 // LDI32 rd, imm32  : rd = imm (two-word form; relocatable)
	OpLD    // LD rd, [rs+simm16]
	OpST    // ST [rd+simm16], rs
	OpLDB   // LDB rd, [rs+simm16]  (zero-extended byte)
	OpSTB   // STB [rd+simm16], rs  (low byte)
	OpADD   // ADD rd, rs
	OpSUB   // SUB rd, rs
	OpAND   // AND rd, rs
	OpOR    // OR rd, rs
	OpXOR   // XOR rd, rs
	OpSHL   // SHL rd, rs       : rd <<= rs & 31
	OpSHR   // SHR rd, rs       : rd >>= rs & 31 (logical)
	OpADDI  // ADDI rd, simm16
	OpMUL   // MUL rd, rs       : rd = low 32 bits of rd*rs
	OpCMP   // CMP ra, rb       : set flags from ra-rb
	OpCMPI  // CMPI ra, simm16
	OpJMP   // JMP rel16        : EIP += 4*simm16 (word-relative)
	OpBEQ   // branch if Z
	OpBNE   // branch if !Z
	OpBLT   // branch if N  (signed <)
	OpBGE   // branch if !N (signed >=)
	OpBLTU  // branch if C  (unsigned <)
	OpBGEU  // branch if !C (unsigned >=)
	OpJR    // JR rs            : EIP = rs
	OpCALL  // CALL rel16       : push return address, EIP += 4*simm16
	OpCALLR // CALLR rs         : push return address, EIP = rs
	OpRET   // RET              : pop EIP
	OpPUSH  // PUSH rs
	OpPOP   // POP rd
	OpSVC   // SVC imm16        : software interrupt (service call)
	OpRDCYC // RDCYC rd         : rd = low 32 bits of the cycle counter

	numOps
)

var opNames = [numOps]string{
	OpNOP: "nop", OpHLT: "hlt", OpMOV: "mov", OpLDI: "ldi", OpLUI: "lui",
	OpLDI32: "ldi32", OpLD: "ld", OpST: "st", OpLDB: "ldb", OpSTB: "stb",
	OpADD: "add", OpSUB: "sub", OpAND: "and", OpOR: "or", OpXOR: "xor",
	OpSHL: "shl", OpSHR: "shr", OpADDI: "addi", OpMUL: "mul",
	OpCMP: "cmp", OpCMPI: "cmpi", OpJMP: "jmp", OpBEQ: "beq", OpBNE: "bne",
	OpBLT: "blt", OpBGE: "bge", OpBLTU: "bltu", OpBGEU: "bgeu",
	OpJR: "jr", OpCALL: "call", OpCALLR: "callr", OpRET: "ret",
	OpPUSH: "push", OpPOP: "pop", OpSVC: "svc", OpRDCYC: "rdcyc",
}

// String returns the assembler mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%#x)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// Width returns the encoded size of an instruction with opcode o in
// bytes: 8 for the two-word LDI32, 4 for everything else.
func (o Op) Width() uint32 {
	if o == OpLDI32 {
		return 8
	}
	return 4
}

// Instruction is a decoded instruction. Not every field is meaningful
// for every opcode; see the opcode comments above.
type Instruction struct {
	Op    Op
	Rd    Reg    // destination / base register
	Rs    Reg    // source register
	Imm   int16  // signed 16-bit immediate (offsets, small constants)
	Imm32 uint32 // 32-bit immediate (LDI32 only)
}

// Width returns the encoded size of the instruction in bytes.
func (in Instruction) Width() uint32 { return in.Op.Width() }

// String renders the instruction in assembler syntax.
func (in Instruction) String() string {
	switch in.Op {
	case OpNOP, OpHLT, OpRET:
		return in.Op.String()
	case OpMOV, OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSHL, OpSHR, OpMUL, OpCMP:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Rs)
	case OpLDI, OpADDI, OpCMPI:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Rd, in.Imm)
	case OpLUI:
		return fmt.Sprintf("%s %s, %#x", in.Op, in.Rd, uint16(in.Imm))
	case OpLDI32:
		return fmt.Sprintf("%s %s, %#x", in.Op, in.Rd, in.Imm32)
	case OpLD, OpLDB:
		return fmt.Sprintf("%s %s, [%s%+d]", in.Op, in.Rd, in.Rs, in.Imm)
	case OpST, OpSTB:
		return fmt.Sprintf("%s [%s%+d], %s", in.Op, in.Rd, in.Imm, in.Rs)
	case OpJMP, OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU, OpCALL:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	case OpJR, OpCALLR, OpPUSH:
		return fmt.Sprintf("%s %s", in.Op, in.Rs)
	case OpPOP, OpRDCYC:
		return fmt.Sprintf("%s %s", in.Op, in.Rd)
	case OpSVC:
		return fmt.Sprintf("%s %d", in.Op, uint16(in.Imm))
	default:
		return fmt.Sprintf("%s rd=%s rs=%s imm=%d", in.Op, in.Rd, in.Rs, in.Imm)
	}
}

// IsCondBranch reports whether the opcode is a flag-conditional branch —
// the only instructions whose taken/not-taken split depends on data.
func (o Op) IsCondBranch() bool {
	switch o {
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return true
	}
	return false
}

// IsCall reports whether the opcode pushes a return address (the two
// call forms). RET is its inverse; everything else leaves the stack of
// return addresses alone.
func (o Op) IsCall() bool { return o == OpCALL || o == OpCALLR }

// Writes reports whether executing the instruction overwrites register
// r. It models the full architectural effect: Rd-writing ALU/load forms,
// the SP adjustment of PUSH/POP/CALL/CALLR/RET, and the r0/r1 clobber of
// SVC (service results land there). Flag effects are not registers and
// are excluded; static analyses that track a register through code use
// this to decide where the tracked value dies.
func (in Instruction) Writes(r Reg) bool {
	switch in.Op {
	case OpMOV, OpLDI, OpLUI, OpLDI32, OpLD, OpLDB,
		OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSHL, OpSHR, OpADDI, OpMUL,
		OpRDCYC:
		return in.Rd == r
	case OpPOP:
		return in.Rd == r || r == SP
	case OpPUSH, OpCALL, OpCALLR, OpRET:
		return r == SP
	case OpSVC:
		return r == R0 || r == R1
	}
	return false
}
