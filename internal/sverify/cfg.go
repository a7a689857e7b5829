package sverify

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
	"repro/internal/telf"
)

// This file builds the control-flow graph: a linear sweep of the text
// section establishes the canonical instruction boundaries (two-word
// LDI32 included), then a reachability traversal from the entry point
// follows the edges edgesOf gives, flagging every branch that leaves
// the code region or lands mid-instruction.

// findingKey dedupes findings: one diagnostic per (offset, code).
type findingKey struct {
	off  uint32
	code string
}

// decoded is one decoded instruction (or hole) at a text offset.
type decoded struct {
	in   isa.Instruction
	size uint32
	ok   bool // decodes to a valid instruction
}

// verifier holds the working state of one Verify call.
type verifier struct {
	im  *telf.Image
	cfg Config

	// Image layout, base 0 — mirrors loader.Placement (the differential
	// test pins the two together).
	textLen  uint32
	dataEnd  uint32 // text+data
	bssBase  uint32
	stackLow uint32 // lowest stack address
	stackTop uint32 // initial SP
	loadSize uint32 // stackTop: bytes of RAM the image occupies
	extent   uint32 // loadSize rounded up to the EA-MPU region granule

	canon map[uint32]decoded // linear-sweep canonical stream
	reach map[uint32]decoded // offsets reachable from the entry point
	order []uint32           // reachable offsets in discovery order

	findings   map[findingKey]Finding
	guaranteed map[findingKey]bool // fault certain if the insn executes

	// states holds the converged abstract pre-state of every reachable
	// instruction once interpret() has run; the call-graph and resource-
	// bound engines resolve indirect targets and loop-entry counter
	// values against it.
	states map[uint32]astate
}

// align4 rounds up to a word boundary (mirrors loader.align4).
func align4(n uint32) uint32 { return (n + 3) &^ 3 }

// granule is the EA-MPU region allocation granularity
// (loader.Granule; not imported to avoid a dependency cycle — the
// differential test asserts the layouts agree).
const granule = 64

func (v *verifier) layout() {
	v.textLen = uint32(len(v.im.Text))
	v.dataEnd = v.textLen + uint32(len(v.im.Data))
	v.bssBase = align4(v.dataEnd)
	v.stackLow = align4(v.bssBase + v.im.BSSSize)
	v.stackTop = v.stackLow + align4(v.im.StackSize)
	v.loadSize = v.stackTop
	v.extent = (v.loadSize + granule - 1) &^ uint32(granule-1)
}

// add records a finding once per (offset, code).
func (v *verifier) add(off uint32, sev Severity, code, msg, disasm string) {
	k := findingKey{off, code}
	if _, dup := v.findings[k]; dup {
		return
	}
	v.findings[k] = Finding{Off: off, Sev: sev, Code: code, Msg: msg, Disasm: disasm}
}

// addGuaranteed records a finding whose fault is certain to trap if the
// flagged instruction executes; markDefinite promotes it to Definite
// when the instruction lies on the must-execute prefix.
func (v *verifier) addGuaranteed(off uint32, sev Severity, code, msg, disasm string) {
	v.add(off, sev, code, msg, disasm)
	if v.guaranteed == nil {
		v.guaranteed = make(map[findingKey]bool)
	}
	v.guaranteed[findingKey{off, code}] = true
}

// decodeAt decodes the instruction starting at off. ok is false for
// undefined opcodes, out-of-range register fields and truncation.
func (v *verifier) decodeAt(off uint32) decoded {
	if off >= v.textLen {
		return decoded{}
	}
	in, n, err := isa.Decode(v.im.Text[off:])
	if err != nil || !in.Op.Valid() {
		return decoded{in: in, size: 4, ok: false}
	}
	return decoded{in: in, size: uint32(n), ok: true}
}

// rawWord renders the undecodable word at off for finding disassembly.
func (v *verifier) rawWord(off uint32) string {
	if off+4 <= v.textLen {
		return fmt.Sprintf(".word %#08x", binary.LittleEndian.Uint32(v.im.Text[off:]))
	}
	return fmt.Sprintf(".byte ×%d", v.textLen-off)
}

// sweep performs the linear decode from text offset 0, establishing the
// canonical instruction boundaries used by the entry-point and
// branch-target checks. Undecodable words are recorded as holes; they
// only become errors if the traversal proves them reachable.
func (v *verifier) sweep() {
	v.canon = make(map[uint32]decoded)
	for off := uint32(0); off < v.textLen; {
		d := v.decodeAt(off)
		if d.size == 0 { // trailing fragment < 4 bytes
			v.canon[off] = decoded{size: v.textLen - off}
			break
		}
		v.canon[off] = d
		off += d.size
	}
	if v.textLen == 0 {
		v.add(0, Warning, "empty-text",
			"image has no code; execution at the entry point falls through zeroed memory", "")
	}
}

// checkEntry verifies the declared entry point is a canonical block
// start — the address the EA-MPU entry-point enforcement admits.
// telf.Validate already pinned it inside text and word-aligned.
func (v *verifier) checkEntry() {
	if v.textLen == 0 {
		return
	}
	if d, ok := v.canon[v.im.Entry]; !ok || !d.ok {
		v.add(v.im.Entry, Error, "entry-mid-insn",
			"entry point is not on a canonical instruction boundary (mid-LDI32 or inside undecodable words)", "")
	}
}

// checkRelocs validates the relocation table against the decoded code:
// immediate relocations must patch the second word of an LDI32, and the
// stored image-relative target must fall inside the loaded extent.
func (v *verifier) checkRelocs() {
	for _, r := range v.im.Relocs {
		// telf.Validate guarantees r.Offset+4 <= dataEnd and alignment.
		word := v.wordAt(r.Offset)
		switch r.Kind {
		case telf.RelImm32, telf.RelImm32Add:
			if r.Offset < 4 || r.Offset > v.textLen {
				v.add(r.Offset, Error, "reloc-not-ldi32",
					fmt.Sprintf("%s relocation at %#x is not attached to an LDI32 immediate word", r.Kind, r.Offset), "")
				break
			}
			d, ok := v.canon[r.Offset-4]
			if !ok || !d.ok || d.in.Op != isa.OpLDI32 {
				v.add(r.Offset, Error, "reloc-not-ldi32",
					fmt.Sprintf("%s relocation at %#x does not patch an LDI32 immediate word", r.Kind, r.Offset), "")
			}
		case telf.RelWord:
			if r.Offset+4 <= v.textLen {
				v.add(r.Offset, Info, "reloc-word-in-text",
					"bare word relocation inside the code section (jump table?)", v.rawWord(r.Offset))
			}
		}
		switch {
		case word >= v.extent:
			v.add(r.Offset, Error, "reloc-target-range",
				fmt.Sprintf("relocated address %#x is outside the task's %d-byte region", word, v.extent), "")
		case word >= v.loadSize:
			v.add(r.Offset, Warning, "reloc-target-range",
				fmt.Sprintf("relocated address %#x points into the region's alignment slack (sections end at %#x)", word, v.loadSize), "")
		}
	}
}

// wordAt reads the little-endian word at an image offset spanning
// text‖data (the space relocations address).
func (v *verifier) wordAt(off uint32) uint32 {
	if off+4 <= v.textLen {
		return binary.LittleEndian.Uint32(v.im.Text[off:])
	}
	if off >= v.textLen && off+4 <= v.dataEnd {
		return binary.LittleEndian.Uint32(v.im.Data[off-v.textLen:])
	}
	// Straddling the section boundary (rejected by telf.Validate on
	// current images; tolerate stitched bytes for robustness).
	var b [4]byte
	for i := uint32(0); i < 4; i++ {
		p := off + i
		switch {
		case p < v.textLen:
			b[i] = v.im.Text[p]
		case p < v.dataEnd:
			b[i] = v.im.Data[p-v.textLen]
		}
	}
	return binary.LittleEndian.Uint32(b[:])
}

// relocatedImm reports whether the LDI32 instruction at off has a
// relocation on its immediate word — i.e. its value is an
// image-relative address the loader rebases, as opposed to an absolute
// constant (an MMIO register, say).
func (v *verifier) relocatedImm(off uint32) bool {
	imm := off + 4
	for _, r := range v.im.Relocs {
		if r.Offset == imm && (r.Kind == telf.RelImm32 || r.Kind == telf.RelImm32Add) {
			return true
		}
	}
	return false
}

// edges is the control-flow edge rule of one decoded instruction; every
// analysis in the package reads its successors from edgesOf.
type edges struct {
	// next reports whether execution may continue at the next
	// instruction: a fallthrough, or the return point of a call.
	next bool
	// direct reports a PC-relative target (JMP, Bcc, CALL); inText
	// whether target lies inside the text section.
	direct, inText bool
	target         uint32
}

// edgesOf applies the edge rule to the valid instruction d at off. Every
// call is assumed to return to its next instruction. Indirect transfers
// (JR, CALLR's callee) have no static target; the call graph resolves
// them from the converged abstract states.
func (v *verifier) edgesOf(off uint32, d decoded) edges {
	op := d.in.Op
	e := edges{next: op != isa.OpHLT && op != isa.OpRET && op != isa.OpJR && op != isa.OpJMP}
	if op == isa.OpJMP || op == isa.OpCALL || op.IsCondBranch() {
		t := int64(off) + int64(d.size) + 4*int64(d.in.Imm)
		e.direct, e.inText, e.target = true, t >= 0 && t < int64(v.textLen), uint32(t)
	}
	return e
}

// succs returns the static successor offsets of the instruction at off,
// recording edge findings (out-of-text and mid-instruction targets) as
// it goes. Successors outside the text section are reported but not
// returned.
func (v *verifier) succs(off uint32, d decoded) []uint32 {
	if !d.ok {
		return nil
	}
	in := d.in
	e := v.edgesOf(off, d)
	var out []uint32
	if next := off + d.size; e.next {
		if next < v.textLen {
			out = append(out, next)
		} else if next == v.textLen {
			v.add(off, Warning, "fallthrough-end",
				"execution falls off the end of the code section into data", in.String())
		}
	}
	switch {
	case e.direct && !e.inText:
		v.add(off, Error, "branch-out-of-text",
			fmt.Sprintf("branch target %#x is outside the code section (%d bytes)", e.target, v.textLen), in.String())
	case e.direct:
		if cd, ok := v.canon[e.target]; !ok || !cd.ok {
			v.add(off, Error, "branch-mid-insn",
				fmt.Sprintf("branch target %#x is not on an instruction boundary (mid-LDI32 or undecodable)", e.target), in.String())
		}
		out = append(out, e.target)
	case in.Op == isa.OpJR:
		v.add(off, Warning, "indirect-branch",
			"indirect jump: target cannot be verified statically", in.String())
	case in.Op == isa.OpCALLR:
		v.add(off, Warning, "indirect-branch",
			"indirect call: target cannot be verified statically", in.String())
	}
	return out
}

// walk decodes every text offset reachable from entry through succsOf
// and returns them. succsOf sees each reached offset once, undecodable
// ones included, in breadth-first discovery order.
func (v *verifier) walk(entry uint32, succsOf func(off uint32, d decoded) []uint32) map[uint32]decoded {
	seen := make(map[uint32]decoded)
	work := []uint32{entry}
	for len(work) > 0 {
		off := work[0]
		work = work[1:]
		if _, ok := seen[off]; ok || off >= v.textLen {
			continue
		}
		d := v.decodeAt(off)
		seen[off] = d
		work = append(work, succsOf(off, d)...)
	}
	return seen
}

// traverse walks the CFG from the entry point, decoding at every
// reached offset (which may disagree with the linear sweep when a
// branch lands mid-instruction — that disagreement is itself reported
// by succs) and flagging reachable undecodable words.
func (v *verifier) traverse() {
	v.reach = v.walk(v.im.Entry, func(off uint32, d decoded) []uint32 {
		v.order = append(v.order, off)
		if !d.ok {
			v.addGuaranteed(off, Error, "invalid-opcode",
				"reachable word is not a valid instruction (illegal-instruction fault)", v.rawWord(off))
		}
		return v.succs(off, d)
	})
	// Canonical holes the traversal never reached are just data carried
	// in .text — worth a note, not an error.
	for off, d := range v.canon {
		if d.ok {
			continue
		}
		if _, reached := v.reach[off]; !reached {
			v.add(off, Info, "data-in-text",
				"undecodable word in the code section is unreachable (embedded data?)", v.rawWord(off))
		}
	}
}

// leaders computes the basic-block leader set among the reachable
// instructions: the entry point, every static branch target, and the
// next instruction after every block end — a control transfer or HLT.
// Only offsets actually reached are included.
func (v *verifier) leaders() map[uint32]bool {
	leaders := make(map[uint32]bool)
	if len(v.reach) == 0 {
		return leaders
	}
	leaders[v.im.Entry] = true
	for off, d := range v.reach {
		if !d.ok {
			continue
		}
		e := v.edgesOf(off, d)
		if e.inText {
			leaders[e.target] = true
		}
		if e.direct || !e.next || d.in.Op == isa.OpCALLR {
			leaders[off+d.size] = true
		}
	}
	for off := range leaders {
		if _, ok := v.reach[off]; !ok {
			delete(leaders, off)
		}
	}
	return leaders
}

// countBlocks counts the basic blocks the reachable instructions form.
func (v *verifier) countBlocks() int { return len(v.leaders()) }

// mustPath computes the set of offsets certain to execute when the task
// is entered at its entry point: the straight-line prefix through
// fallthrough edges, unconditional JMPs, direct CALLs (followed into
// the callee — the callee entry executes whenever the call does; the
// prefix never models the return) and kernel services that return to
// the caller (yield, delay, putchar, gettime). Conditional branches,
// indirect jumps and blocking/terminating services end the prefix —
// beyond them execution is input-dependent. Revisiting an offset ends
// the prefix too, which is how an unguarded recursion cycle terminates
// the walk (after proving every instruction on the cycle must-execute).
func (v *verifier) mustPath() map[uint32]bool {
	must := make(map[uint32]bool)
	if v.textLen == 0 {
		return must
	}
	off := v.im.Entry
	for {
		if off >= v.textLen || must[off] {
			return must
		}
		must[off] = true
		d, ok := v.reach[off]
		if !ok || !d.ok {
			return must
		}
		in := d.in
		switch e := v.edgesOf(off, d); {
		case e.direct && !in.Op.IsCondBranch(): // JMP, CALL: the target runs next
			if !e.inText {
				return must
			}
			off = e.target
		case e.direct || !e.next || in.Op == isa.OpCALLR: // Bcc, HLT, RET, JR, CALLR
			return must
		case in.Op == isa.OpSVC:
			switch uint16(in.Imm) {
			case 0, 2, 5, 6: // yield, delay, putchar, gettime: return here
				off += d.size
			default:
				return must
			}
		default:
			off += d.size
		}
	}
}

// markDefinite promotes guaranteed-fault findings that lie on the
// must-execute prefix to Definite — the one-sided promise the
// differential soundness test holds the verifier to.
func (v *verifier) markDefinite() {
	must := v.mustPath()
	for k, f := range v.findings {
		if v.guaranteed[k] && must[k.off] {
			f.Definite = true
			v.findings[k] = f
		}
	}
}
