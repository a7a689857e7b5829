package sverify

import (
	"testing"

	"repro/internal/isa"
)

func TestJoin(t *testing.T) {
	c5 := constValue(5)
	if got := joinValue(c5, constValue(5)); got != c5 {
		t.Fatalf("join equal consts = %+v", got)
	}
	if got := joinValue(c5, constValue(6)); got.K != kindTop {
		t.Fatalf("join unequal consts = %+v", got)
	}
	if got := joinValue(c5, relocValue(5)); got.K != kindTop {
		t.Fatalf("join const with reloc const = %+v", got)
	}
	if got := joinValue(stackValue(-4), stackValue(-4)); got.K != kindStack || got.delta() != -4 {
		t.Fatalf("join equal stack = %+v", got)
	}
	if got := joinValue(stackValue(-4), stackValue(0)); got.K != kindTop {
		t.Fatalf("join unequal stack = %+v", got)
	}
}

func TestAddSub(t *testing.T) {
	if got := addValue(constValue(5), constValue(7)); !got.isConst() || got.V != 12 {
		t.Fatalf("5+7 = %+v", got)
	}
	if got := addValue(stackValue(-8), constValue(4)); got.K != kindStack || got.delta() != -4 {
		t.Fatalf("stack-8 + 4 = %+v", got)
	}
	// Pointer+pointer has no meaning: two relocated values don't sum to
	// an address.
	if got := addValue(relocValue(8), relocValue(8)); got.K != kindTop {
		t.Fatalf("reloc+reloc = %+v", got)
	}
	// Pointer+offset keeps provenance.
	if got := addValue(relocValue(8), constValue(4)); got.K != kindConst || !got.Reloc || got.V != 12 {
		t.Fatalf("reloc+const = %+v", got)
	}
	// Pointer difference is a plain number.
	if got := subValue(relocValue(12), relocValue(4)); !got.isConst() || got.V != 8 {
		t.Fatalf("reloc-reloc = %+v", got)
	}
	// Number minus pointer is meaningless.
	if got := subValue(constValue(12), relocValue(4)); got.K != kindTop {
		t.Fatalf("const-reloc = %+v", got)
	}
}

func TestTransferCoreOps(t *testing.T) {
	var r absRegs
	step := func(in isa.Instruction) { transferRegs(in, &r, false) }

	step(isa.Instruction{Op: isa.OpLDI, Rd: isa.R0, Imm: 5})
	step(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: 3})
	step(isa.Instruction{Op: isa.OpADD, Rd: isa.R0, Rs: isa.R1})
	if v := r[isa.R0]; !v.isConst() || v.V != 8 {
		t.Fatalf("r0 after add = %+v", v)
	}
	step(isa.Instruction{Op: isa.OpSHL, Rd: isa.R0, Rs: isa.R1})
	if v := r[isa.R0]; !v.isConst() || v.V != 64 {
		t.Fatalf("r0 after shl = %+v", v)
	}
	// Clear idiom: xor rd, rd is const 0 even from Top.
	step(isa.Instruction{Op: isa.OpLD, Rd: isa.R2, Rs: isa.R0})
	if v := r[isa.R2]; v.K != kindTop {
		t.Fatalf("r2 after load = %+v", v)
	}
	step(isa.Instruction{Op: isa.OpXOR, Rd: isa.R2, Rs: isa.R2})
	if v := r[isa.R2]; !v.isConst() || v.V != 0 {
		t.Fatalf("r2 after xor-clear = %+v", v)
	}

	// Stack discipline: push/pop move SP by known deltas.
	r[isa.SP] = stackValue(0)
	step(isa.Instruction{Op: isa.OpPUSH, Rs: isa.R0})
	if v := r[isa.SP]; v.K != kindStack || v.delta() != -4 {
		t.Fatalf("sp after push = %+v", v)
	}
	step(isa.Instruction{Op: isa.OpPOP, Rd: isa.R3})
	if v := r[isa.SP]; v.K != kindStack || v.delta() != 0 {
		t.Fatalf("sp after pop = %+v", v)
	}
	if v := r[isa.R3]; v.K != kindTop {
		t.Fatalf("popped r3 = %+v", v)
	}

	// SVC clobbers the ABI result registers only.
	r[isa.R4] = constValue(9)
	r[isa.R0] = constValue(1)
	step(isa.Instruction{Op: isa.OpSVC, Imm: 2})
	if r[isa.R0].K != kindTop || r[isa.R1].K != kindTop {
		t.Fatalf("svc left r0/r1 = %+v %+v", r[isa.R0], r[isa.R1])
	}
	if v := r[isa.R4]; !v.isConst() || v.V != 9 {
		t.Fatalf("svc clobbered r4 = %+v", v)
	}
}

func TestTransferLDI32Reloc(t *testing.T) {
	var r absRegs
	transferRegs(isa.Instruction{Op: isa.OpLDI32, Rd: isa.R0, Imm32: 0x40}, &r, true)
	v := r[isa.R0]
	if v.K != kindConst || !v.Reloc || v.V != 0x40 {
		t.Fatalf("relocated ldi32 = %+v", v)
	}
	if v.isConst() {
		t.Fatal("relocated value must not count as an absolute constant")
	}
}
