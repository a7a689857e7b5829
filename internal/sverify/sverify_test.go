package sverify

import (
	"bytes"
	"testing"

	"repro/internal/contract"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/telf"
)

// code builds an encoded text section from instructions.
func code(ins ...isa.Instruction) []byte {
	var b []byte
	for _, in := range ins {
		b = isa.Encode(b, in)
	}
	return b
}

// mkimg wraps a text section in a small, well-formed image.
func mkimg(entry uint32, text []byte, relocs ...telf.Reloc) *telf.Image {
	return &telf.Image{
		Name:      "t",
		Entry:     entry,
		Text:      text,
		Data:      make([]byte, 8),
		BSSSize:   16,
		StackSize: 64,
		Relocs:    relocs,
	}
}

// sevOf returns the severity of the first finding with the given code,
// or (0, false).
func sevOf(rep *Report, code string) (Severity, bool) {
	for _, f := range rep.Findings {
		if f.Code == code {
			return f.Sev, true
		}
	}
	return 0, false
}

func wantFinding(t *testing.T, rep *Report, code string, sev Severity) {
	t.Helper()
	got, ok := sevOf(rep, code)
	if !ok {
		t.Fatalf("missing finding %q; report:\n%s", code, reportText(rep))
	}
	if got != sev {
		t.Fatalf("finding %q: severity %v, want %v", code, got, sev)
	}
}

func reportText(rep *Report) string {
	var b bytes.Buffer
	rep.WriteText(&b)
	return b.String()
}

func TestGenCleanIsClean(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rep := Verify(GenImage(GenClean, seed), Config{})
		if len(rep.Findings) != 0 {
			t.Fatalf("seed %d: clean image has findings:\n%s", seed, reportText(rep))
		}
		if rep.Insns == 0 || rep.Blocks == 0 {
			t.Fatalf("seed %d: empty CFG (%d insns, %d blocks)", seed, rep.Insns, rep.Blocks)
		}
	}
}

func TestGenErrorClassesAreDefinite(t *testing.T) {
	expect := map[GenClass]string{
		GenInvalidOpcode: "invalid-opcode",
		GenBadSyscall:    "syscall-unknown",
		GenWildStore:     "oob-access",
		GenMisaligned:    "misaligned-access",
		GenBranchMidInsn: "invalid-opcode",
	}
	for class, wantCode := range expect {
		for seed := uint64(0); seed < 10; seed++ {
			rep := Verify(GenImage(class, seed), Config{})
			def := rep.DefiniteErrors()
			if len(def) == 0 {
				t.Fatalf("%s seed %d: no definite errors:\n%s", class, seed, reportText(rep))
			}
			found := false
			for _, f := range def {
				if f.Code == wantCode {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s seed %d: no definite %q:\n%s", class, seed, wantCode, reportText(rep))
			}
		}
	}
}

func TestEntryMidInsn(t *testing.T) {
	im := mkimg(4, code(
		isa.Instruction{Op: isa.OpLDI32, Rd: isa.R1, Imm32: 0xFFFFFFFF},
		isa.Instruction{Op: isa.OpHLT},
	))
	wantFinding(t, Verify(im, Config{}), "entry-mid-insn", Error)
}

func TestBranchOutOfText(t *testing.T) {
	im := mkimg(0, code(isa.Instruction{Op: isa.OpJMP, Imm: 100}))
	wantFinding(t, Verify(im, Config{}), "branch-out-of-text", Error)
}

func TestBranchMidInsn(t *testing.T) {
	im := mkimg(0, code(
		isa.Instruction{Op: isa.OpJMP, Imm: 1},
		isa.Instruction{Op: isa.OpLDI32, Rd: isa.R1, Imm32: 0xFFFFFFFF},
		isa.Instruction{Op: isa.OpHLT},
	))
	rep := Verify(im, Config{})
	wantFinding(t, rep, "branch-mid-insn", Error)
	wantFinding(t, rep, "invalid-opcode", Error)
}

func TestIndirectBranchWarning(t *testing.T) {
	im := mkimg(0, code(isa.Instruction{Op: isa.OpJR, Rs: isa.R1}))
	rep := Verify(im, Config{})
	wantFinding(t, rep, "indirect-branch", Warning)
	if rep.HasErrors() {
		t.Fatalf("indirect branches must not be errors:\n%s", reportText(rep))
	}
}

func TestRetWithoutCall(t *testing.T) {
	im := mkimg(0, code(isa.Instruction{Op: isa.OpRET}))
	wantFinding(t, Verify(im, Config{}), "ret-no-call", Warning)
}

func TestStackUnderflowWarning(t *testing.T) {
	im := mkimg(0, code(
		isa.Instruction{Op: isa.OpADDI, Rd: isa.SP, Imm: -4096},
		isa.Instruction{Op: isa.OpLD, Rd: isa.R0, Rs: isa.SP},
		isa.Instruction{Op: isa.OpHLT},
	))
	wantFinding(t, Verify(im, Config{}), "stack-oob", Warning)
}

func TestRecursionCallDepthWarning(t *testing.T) {
	im := mkimg(0, code(
		isa.Instruction{Op: isa.OpCALL, Imm: -1}, // call self
		isa.Instruction{Op: isa.OpHLT},
	))
	wantFinding(t, Verify(im, Config{}), "call-depth", Warning)
}

func TestAbsoluteAddressChecks(t *testing.T) {
	t.Run("mmio-byte", func(t *testing.T) {
		im := mkimg(0, code(
			isa.Instruction{Op: isa.OpLDI32, Rd: isa.R1, Imm32: machine.MMIOBase + 0x500},
			isa.Instruction{Op: isa.OpLDB, Rd: isa.R0, Rs: isa.R1},
			isa.Instruction{Op: isa.OpHLT},
		))
		rep := Verify(im, Config{})
		wantFinding(t, rep, "mmio-byte-access", Error)
		if _, ok := sevOf(rep, "abs-ram-address"); ok {
			t.Fatal("MMIO access misflagged as RAM address")
		}
	})
	t.Run("mmio-word-clean", func(t *testing.T) {
		im := mkimg(0, code(
			isa.Instruction{Op: isa.OpLDI32, Rd: isa.R1, Imm32: machine.MMIOBase + 0x500},
			isa.Instruction{Op: isa.OpLD, Rd: isa.R0, Rs: isa.R1},
			isa.Instruction{Op: isa.OpHLT},
		))
		if rep := Verify(im, Config{}); len(rep.Findings) != 0 {
			t.Fatalf("aligned MMIO word access must be clean:\n%s", reportText(rep))
		}
	})
	t.Run("null", func(t *testing.T) {
		im := mkimg(0, code(
			isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: 0},
			isa.Instruction{Op: isa.OpLD, Rd: isa.R0, Rs: isa.R1},
			isa.Instruction{Op: isa.OpHLT},
		))
		wantFinding(t, Verify(im, Config{}), "null-access", Error)
	})
	t.Run("beyond-ram", func(t *testing.T) {
		im := mkimg(0, code(
			isa.Instruction{Op: isa.OpLDI32, Rd: isa.R1, Imm32: machine.RAMBase + machine.DefaultRAMSize},
			isa.Instruction{Op: isa.OpLD, Rd: isa.R0, Rs: isa.R1},
			isa.Instruction{Op: isa.OpHLT},
		))
		wantFinding(t, Verify(im, Config{}), "oob-access", Error)
	})
	t.Run("misaligned-ram", func(t *testing.T) {
		im := mkimg(0, code(
			isa.Instruction{Op: isa.OpLDI32, Rd: isa.R1, Imm32: machine.RAMBase + 2},
			isa.Instruction{Op: isa.OpLD, Rd: isa.R0, Rs: isa.R1},
			isa.Instruction{Op: isa.OpHLT},
		))
		rep := Verify(im, Config{})
		wantFinding(t, rep, "misaligned-access", Error)
		wantFinding(t, rep, "abs-ram-address", Warning)
	})
}

func TestStoreToTextWarning(t *testing.T) {
	im := mkimg(0, code(
		isa.Instruction{Op: isa.OpLDI32, Rd: isa.R1, Imm32: 0}, // relocated: image offset 0
		isa.Instruction{Op: isa.OpST, Rd: isa.R1, Rs: isa.R0},
		isa.Instruction{Op: isa.OpHLT},
	), telf.Reloc{Offset: 4, Kind: telf.RelImm32})
	wantFinding(t, Verify(im, Config{}), "store-to-text", Warning)
}

func TestRelocNotLDI32(t *testing.T) {
	im := mkimg(0, code(
		isa.Instruction{Op: isa.OpADD, Rd: isa.R1, Rs: isa.R2},
		isa.Instruction{Op: isa.OpNOP},
		isa.Instruction{Op: isa.OpHLT},
	), telf.Reloc{Offset: 4, Kind: telf.RelImm32})
	wantFinding(t, Verify(im, Config{}), "reloc-not-ldi32", Error)
}

func TestRelocTargetRange(t *testing.T) {
	im := mkimg(0, code(
		isa.Instruction{Op: isa.OpLDI32, Rd: isa.R1, Imm32: 1 << 20}, // way outside the extent
		isa.Instruction{Op: isa.OpHLT},
	), telf.Reloc{Offset: 4, Kind: telf.RelImm32})
	wantFinding(t, Verify(im, Config{}), "reloc-target-range", Error)
}

func TestDataInTextNote(t *testing.T) {
	text := code(isa.Instruction{Op: isa.OpHLT})
	text = append(text, 0xEF, 0xBE, 0xAD, 0xFE) // unreachable garbage
	im := mkimg(0, text)
	rep := Verify(im, Config{})
	wantFinding(t, rep, "data-in-text", Info)
	if rep.HasErrors() {
		t.Fatalf("unreachable garbage must not be an error:\n%s", reportText(rep))
	}
}

func TestFallthroughEndWarning(t *testing.T) {
	im := mkimg(0, code(isa.Instruction{Op: isa.OpADD, Rd: isa.R1, Rs: isa.R2}))
	wantFinding(t, Verify(im, Config{}), "fallthrough-end", Warning)
}

func TestEmptyText(t *testing.T) {
	im := &telf.Image{Name: "empty", StackSize: 64}
	wantFinding(t, Verify(im, Config{}), "empty-text", Warning)
}

func TestSyscallAllowlistOverride(t *testing.T) {
	im := mkimg(0, code(
		isa.Instruction{Op: isa.OpSVC, Imm: 7},
		isa.Instruction{Op: isa.OpHLT},
	))
	if rep := Verify(im, Config{Syscalls: map[uint16]bool{7: true}}); rep.HasErrors() {
		t.Fatalf("allowlisted svc 7 flagged:\n%s", reportText(rep))
	}
	rep := Verify(im, Config{})
	wantFinding(t, rep, "syscall-unknown", Error)
	if len(rep.DefiniteErrors()) != 1 {
		t.Fatalf("svc on the entry path must be definite:\n%s", reportText(rep))
	}
}

// TestConditionalFaultNotDefinite: a guaranteed-fault instruction behind
// a conditional branch is an Error but must not be promoted to Definite.
func TestConditionalFaultNotDefinite(t *testing.T) {
	im := mkimg(0, code(
		isa.Instruction{Op: isa.OpCMPI, Rd: isa.R0, Imm: 0},
		isa.Instruction{Op: isa.OpBEQ, Imm: 1},
		isa.Instruction{Op: isa.OpSVC, Imm: 9}, // only on the not-taken path
		isa.Instruction{Op: isa.OpHLT},
	))
	rep := Verify(im, Config{})
	wantFinding(t, rep, "syscall-unknown", Error)
	if n := len(rep.DefiniteErrors()); n != 0 {
		t.Fatalf("conditional fault promoted to definite:\n%s", reportText(rep))
	}
}

// TestLoopJoinDegradesToTop: a register that is a different constant on
// two paths into a loop must not produce access findings (no false
// positives from intermediate states).
func TestLoopJoinNoFalsePositive(t *testing.T) {
	im := mkimg(0, code(
		isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: 0},
		isa.Instruction{Op: isa.OpLD, Rd: isa.R0, Rs: isa.R2}, // r2 is Top: silent
		isa.Instruction{Op: isa.OpADDI, Rd: isa.R1, Imm: 4},   // loop body changes r1
		isa.Instruction{Op: isa.OpCMPI, Rd: isa.R0, Imm: 10},
		isa.Instruction{Op: isa.OpBNE, Imm: -3}, // back to the LD
		isa.Instruction{Op: isa.OpHLT},
	))
	rep := Verify(im, Config{})
	if rep.HasErrors() {
		t.Fatalf("loop produced spurious errors:\n%s", reportText(rep))
	}
}

func TestVerifyDeterministic(t *testing.T) {
	im := GenImage(GenWildStore, 42)
	contract.Check(t, contract.Row{Name: "verify-wildstore", Produce: func(t *testing.T, _ contract.Point) []byte {
		rep := Verify(im, Config{})
		var out bytes.Buffer
		if err := rep.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		rep.WriteText(&out)
		return out.Bytes()
	}})
}

func TestVerifyBytesRejectsIffDecodeRejects(t *testing.T) {
	im := GenImage(GenClean, 7)
	enc, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyBytes(enc, Config{}); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
	if _, err := VerifyBytes(enc[:10], Config{}); err == nil {
		t.Fatal("truncated image accepted")
	}
}

func TestGenImagesValidate(t *testing.T) {
	for c := GenClass(0); c < NumGenClasses; c++ {
		for seed := uint64(0); seed < 5; seed++ {
			im := GenImage(c, seed)
			if err := im.Validate(); err != nil {
				t.Fatalf("%s seed %d: generated image fails Validate: %v", c, seed, err)
			}
			enc, err := im.Encode()
			if err != nil {
				t.Fatalf("%s seed %d: encode failed: %v", c, seed, err)
			}
			if _, err := telf.Decode(enc); err != nil {
				t.Fatalf("%s seed %d: decode failed: %v", c, seed, err)
			}
		}
	}
}
