package machine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/eampu"
	"repro/internal/isa"
)

// logDevice is an MMIO device that records every access.
type logDevice struct{ log []string }

func (d *logDevice) Name() string { return "log" }

func (d *logDevice) Read(off uint32) uint32 {
	d.log = append(d.log, fmt.Sprintf("r%#x", off))
	return 0xA000 + off
}

func (d *logDevice) Write(off, v uint32) {
	d.log = append(d.log, fmt.Sprintf("w%#x=%#x", off, v))
}

// bulkMachine builds one engine's machine for the bulk-transfer tests:
// code at bulkOwner owns [0x9000, 0x9100) read-write and [0x9100,
// 0x9200) read-only; the rest of RAM is public.
func bulkMachine(t *testing.T, fast bool) (*Machine, *logDevice) {
	m := New(64 << 10)
	m.FastPath = fast
	dev := &logDevice{}
	m.MapDevice(PageUART, dev)
	code := eampu.Region{Start: bulkOwner, Size: 0x100}
	for i, r := range []eampu.Rule{
		{Code: code, Data: eampu.Region{Start: 0x9000, Size: 0x100}, Perm: eampu.PermRW, Owner: 1},
		{Code: code, Data: eampu.Region{Start: 0x9100, Size: 0x100}, Perm: eampu.PermR, Owner: 1},
	} {
		if err := m.MPU.Install(i, r); err != nil {
			t.Fatal(err)
		}
	}
	m.MPU.Enable()
	return m, dev
}

const (
	bulkOwner = 0x4000 // code owning the protected regions
	bulkOther = 0x5000 // code without any grant
)

// TestWordsDifferential runs ReadWords and WriteWords on the production
// engine and on the reference oracle over spans that are allowed, cross
// an EA-MPU rule boundary, are partly denied, misaligned, run past
// either end of RAM or touch MMIO. Each call must give the same error
// text, leave the same RAM bytes (a write's prefix before a fault
// included), the same device traffic and the same violation count.
// Every case runs twice, so the second round meets a warm decision
// cache and the production engine takes its bulk path wherever one hit
// allows the span.
func TestWordsDifferential(t *testing.T) {
	end := RAMBase + uint32(64<<10)
	cases := []struct {
		name     string
		pc, addr uint32
		n        int
		// readOK/writeOK: whether the access succeeds; bulk: whether
		// a warm production engine copies the span in one transfer.
		readOK, writeOK, bulk bool
	}{
		{"public", bulkOther, 0x8000, 10, true, true, true},
		{"owned", bulkOwner, 0x9010, 10, true, true, true},
		{"empty", bulkOther, 0x9000, 0, true, true, false},
		{"cross-rule-allowed", bulkOwner, 0x8FF0, 10, true, true, false},
		{"cross-rule-read-only", bulkOwner, 0x90F0, 8, true, false, false},
		{"denied-above", bulkOther, 0x8FF0, 8, false, false, false},
		{"denied-below", bulkOther, 0x91F0, 8, false, false, false},
		{"misaligned", bulkOther, 0x8002, 4, false, false, false},
		{"past-ram-end", bulkOther, end - 8, 4, false, false, false},
		{"below-ram", bulkOther, RAMBase - 8, 4, false, false, false},
		{"mmio", bulkOther, DeviceAddr(PageUART), 4, true, true, false},
		{"mmio-unmapped", bulkOther, DeviceAddr(PageTimer), 2, false, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prod, pdev := bulkMachine(t, true)
			ref, rdev := bulkMachine(t, false)
			for round := 0; round < 2; round++ {
				tag := fmt.Sprintf("round %d", round)
				src := make([]uint32, c.n)
				for i := range src {
					src[i] = uint32(round)<<16 | uint32(i+1)
				}
				if round == 1 && c.bulk {
					prod.WithExecContext(c.pc, func() {
						for _, kind := range []eampu.AccessKind{eampu.AccessRead, eampu.AccessWrite} {
							if _, ok := prod.wordsFast(kind, c.addr, c.n); !ok {
								t.Fatalf("%s: %v span not served by one decision", tag, kind)
							}
						}
					})
				}
				var got [2][]uint32
				var rerr, werr [2]error
				for i, m := range []*Machine{prod, ref} {
					got[i] = make([]uint32, c.n)
					m.WithExecContext(c.pc, func() {
						werr[i] = m.WriteWords(c.addr, src)
						rerr[i] = m.ReadWords(c.addr, got[i])
					})
				}
				if (werr[0] == nil) != c.writeOK || (rerr[0] == nil) != c.readOK {
					t.Fatalf("%s: write err %v, read err %v; want ok %v/%v", tag, werr[0], rerr[0], c.writeOK, c.readOK)
				}
				if a, b := fmt.Sprint(werr[0]), fmt.Sprint(werr[1]); a != b {
					t.Fatalf("%s: write error prod=%q ref=%q", tag, a, b)
				}
				if a, b := fmt.Sprint(rerr[0]), fmt.Sprint(rerr[1]); a != b {
					t.Fatalf("%s: read error prod=%q ref=%q", tag, a, b)
				}
				if a, b := fmt.Sprint(got[0]), fmt.Sprint(got[1]); a != b {
					t.Fatalf("%s: read words prod=%s ref=%s", tag, a, b)
				}
				if c.writeOK && c.readOK && fmt.Sprint(got[0]) != fmt.Sprint(src) && c.addr < MMIOBase {
					t.Fatalf("%s: read back %v, wrote %v", tag, got[0], src)
				}
				pram, _ := prod.ReadBytes(RAMBase, prod.RAMSize())
				rram, _ := ref.ReadBytes(RAMBase, ref.RAMSize())
				if !bytes.Equal(pram, rram) {
					t.Fatalf("%s: RAM differs", tag)
				}
				if a, b := prod.MPU.Violations(), ref.MPU.Violations(); a != b {
					t.Fatalf("%s: violations prod=%d ref=%d", tag, a, b)
				}
				if a, b := fmt.Sprint(pdev.log), fmt.Sprint(rdev.log); a != b {
					t.Fatalf("%s: device traffic prod=%s ref=%s", tag, a, b)
				}
			}
		})
	}
}

// TestWriteWordsPrefix pins the fallback order: a store span whose low
// words are denied writes its allowed high words, highest first, and
// faults at the highest denied word; a read span faults at its first
// denied word.
func TestWriteWordsPrefix(t *testing.T) {
	m, _ := bulkMachine(t, true)
	m.WithExecContext(bulkOther, func() {
		err := m.WriteWords(0x91F8, []uint32{1, 2, 3, 4})
		if want := "eampu: write violation: pc 0x5000 accessing 0x91fc"; fmt.Sprint(err) != want {
			t.Fatalf("write error %v, want %s", err, want)
		}
		b, _ := m.ReadBytes(0x91F8, 16)
		if !bytes.Equal(b, []byte{0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0}) {
			t.Fatalf("RAM after partial write: %v", b)
		}
		err = m.ReadWords(0x8FF8, make([]uint32, 4))
		if want := "eampu: read violation: pc 0x5000 accessing 0x9000"; fmt.Sprint(err) != want {
			t.Fatalf("read error %v, want %s", err, want)
		}
	})
}

// TestWriteWordsInvalidatesCode overwrites a decoded instruction with a
// bulk store: the production engine's one noteRAMWrite for the span
// must invalidate the predecode entry, so the next fetch runs the new
// instruction.
func TestWriteWordsInvalidatesCode(t *testing.T) {
	var p isa.Program
	p.Emit(isa.Instruction{Op: isa.OpLDI, Rd: isa.R1, Imm: 111})
	p.Emit(isa.Instruction{Op: isa.OpHLT})
	b := p.Bytes()
	hlt := binary.LittleEndian.Uint32(b[4:])
	m := New(64 << 10)
	write := func(first uint32, bulk bool) {
		m.WithExecContext(bulkOther, func() {
			if _, ok := m.wordsFast(eampu.AccessWrite, 0x2000, 2); ok != bulk {
				t.Fatalf("bulk path taken = %v, want %v", ok, bulk)
			}
			if err := m.WriteWords(0x2000, []uint32{first, hlt}); err != nil {
				t.Fatal(err)
			}
		})
		m.SetEIP(0x2000)
		m.Step()
	}
	write(binary.LittleEndian.Uint32(b), false) // stages and decodes LDI r1, 111
	write(patchedWord(), true)                  // LDI r1, 222 over the cached line
	if got := m.Reg(isa.R1); got != 222 {
		t.Fatalf("r1 = %d after the bulk patch, want 222", got)
	}
}
