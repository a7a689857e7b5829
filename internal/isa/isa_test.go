package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpWidth(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		want := uint32(4)
		if op == OpLDI32 {
			want = 8
		}
		if got := op.Width(); got != want {
			t.Errorf("%v.Width() = %d, want %d", op, got, want)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpADD.String() != "add" {
		t.Errorf("OpADD.String() = %q", OpADD.String())
	}
	if !strings.Contains(Op(200).String(), "0xc8") {
		t.Errorf("invalid opcode String() = %q", Op(200).String())
	}
	if Op(200).Valid() {
		t.Error("Op(200).Valid() = true")
	}
}

func TestRegString(t *testing.T) {
	if R3.String() != "r3" {
		t.Errorf("R3.String() = %q", R3.String())
	}
	if SP.String() != "sp" {
		t.Errorf("SP.String() = %q", SP.String())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Instruction{
		{Op: OpNOP},
		{Op: OpHLT},
		{Op: OpMOV, Rd: R1, Rs: R2},
		{Op: OpLDI, Rd: R0, Imm: -42},
		{Op: OpLUI, Rd: R5, Imm: int16(int32(0xF000) - 0x10000)},
		{Op: OpLDI32, Rd: R4, Imm32: 0xDEADBEEF},
		{Op: OpLD, Rd: R2, Rs: R3, Imm: 16},
		{Op: OpST, Rd: R3, Rs: R2, Imm: -8},
		{Op: OpLDB, Rd: R1, Rs: R6, Imm: 1},
		{Op: OpSTB, Rd: R6, Rs: R1, Imm: 0},
		{Op: OpADD, Rd: R0, Rs: R1},
		{Op: OpADDI, Rd: R7, Imm: -4},
		{Op: OpCMP, Rd: R1, Rs: R2},
		{Op: OpCMPI, Rd: R1, Imm: 100},
		{Op: OpJMP, Imm: -3},
		{Op: OpBEQ, Imm: 5},
		{Op: OpJR, Rs: R6},
		{Op: OpCALL, Imm: 10},
		{Op: OpCALLR, Rs: R2},
		{Op: OpRET},
		{Op: OpPUSH, Rs: R1},
		{Op: OpPOP, Rd: R1},
		{Op: OpSVC, Imm: 7},
		{Op: OpRDCYC, Rd: R0},
	}
	for _, in := range cases {
		b := Encode(nil, in)
		if got := uint32(len(b)); got != in.Width() {
			t.Errorf("%v: encoded %d bytes, Width()=%d", in, got, in.Width())
		}
		out, n, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: decode error %v", in, err)
		}
		if n != len(b) {
			t.Errorf("%v: decode consumed %d of %d bytes", in, n, len(b))
		}
		if out != in {
			t.Errorf("round trip: got %+v, want %+v", out, in)
		}
	}
}

// TestEncodeDecodeQuick property-tests that every well-formed instruction
// survives an encode/decode round trip.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(op uint8, rd, rs uint8, imm int16, imm32 uint32) bool {
		in := Instruction{
			Op:  Op(op % uint8(numOps)),
			Rd:  Reg(rd % NumRegs),
			Rs:  Reg(rs % NumRegs),
			Imm: imm,
		}
		if in.Op == OpLDI32 {
			in.Imm32 = imm32
		}
		b := Encode(nil, in)
		out, n, err := Decode(b)
		return err == nil && n == len(b) && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2}); err != ErrTruncated {
		t.Errorf("short buffer: err = %v, want ErrTruncated", err)
	}
	// LDI32 with missing second word.
	b := Encode(nil, Instruction{Op: OpLDI32, Rd: R0, Imm32: 1})
	if _, _, err := Decode(b[:4]); err != ErrTruncated {
		t.Errorf("truncated LDI32: err = %v, want ErrTruncated", err)
	}
}

func TestDecodeInvalidRegisterField(t *testing.T) {
	// Craft a word with rd = 0xF (no such register).
	w := uint32(OpMOV)<<24 | 0xF<<20
	b := []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}
	in, _, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op.Valid() {
		t.Errorf("register field 0xF decoded as valid op %v", in.Op)
	}
}

func TestEncodePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Encode of invalid opcode did not panic")
		}
	}()
	Encode(nil, Instruction{Op: numOps})
}

func TestInstructionString(t *testing.T) {
	cases := map[string]Instruction{
		"nop":             {Op: OpNOP},
		"mov r1, r2":      {Op: OpMOV, Rd: R1, Rs: R2},
		"ldi r0, -42":     {Op: OpLDI, Rd: R0, Imm: -42},
		"ld r2, [r3+16]":  {Op: OpLD, Rd: R2, Rs: R3, Imm: 16},
		"st [r3-8], r2":   {Op: OpST, Rd: R3, Rs: R2, Imm: -8},
		"jmp -3":          {Op: OpJMP, Imm: -3},
		"svc 7":           {Op: OpSVC, Imm: 7},
		"push r1":         {Op: OpPUSH, Rs: R1},
		"pop r4":          {Op: OpPOP, Rd: R4},
		"ldi32 r4, 0xbee": {Op: OpLDI32, Rd: R4, Imm32: 0xBEE},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestDisassemble(t *testing.T) {
	var p Program
	p.Emit(Instruction{Op: OpLDI, Rd: R0, Imm: 5}).
		Emit(Instruction{Op: OpLDI32, Rd: R1, Imm32: 0x1000}).
		Emit(Instruction{Op: OpADD, Rd: R0, Rs: R1}).
		Emit(Instruction{Op: OpHLT})
	out := Disassemble(0x100, p.Bytes())
	for _, want := range []string{"00000100:\tldi r0, 5", "ldi32 r1, 0x1000", "add r0, r1", "hlt"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

func TestDisassembleRawWords(t *testing.T) {
	// An invalid opcode should render as .word, not crash.
	b := []byte{0xEF, 0xBE, 0xAD, 0xDE, 0x01, 0x02}
	out := Disassemble(0, b)
	if !strings.Contains(out, ".word") || !strings.Contains(out, ".byte") {
		t.Errorf("raw disassembly = %q", out)
	}
}
