// Package telf implements TELF (Tiny ELF), the relocatable binary format
// for tasks on the simulated platform.
//
// The TyTAN prototype extends FreeRTOS with an ELF loader because ELF
// "supports relocatable binaries and encodes all information required
// for relocation in ELF file headers" (§4). TELF carries exactly that
// information and nothing else: a text section, a data section, a BSS
// size, a stack size, an entry point, and a relocation table.
//
// An image is linked at base 0. When loaded at physical address B, the
// loader lays the sections out contiguously:
//
//	B+0              text
//	B+len(text)      data
//	B+len(text+data) bss (zeroed)
//	...              stack (grows down from the end of the region)
//
// Every relocation identifies a 32-bit little-endian word inside text or
// data whose stored value is an image-relative offset; loading adds B to
// it, and position-independent measurement subtracts B again (see
// internal/loader and internal/trusted).
package telf

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic identifies a TELF image ("TELF" little-endian).
const Magic uint32 = 0x464C4554

// Version is the current format version.
const Version uint16 = 1

// RelocKind describes how a relocation fixup is applied. All current
// kinds patch a 32-bit absolute address; they differ in which
// instruction form contains the word, which affects the fixup cost the
// loader charges (cheap for data words, more expensive for immediates
// embedded in code — mirroring the spread between the "min" and "avg"
// columns of Table 5 in the paper).
type RelocKind uint8

const (
	// RelWord patches a bare 32-bit word (e.g. a .word label in .data,
	// or a jump table entry).
	RelWord RelocKind = iota
	// RelImm32 patches the immediate word of an LDI32 instruction.
	RelImm32
	// RelImm32Add patches an LDI32 immediate that carries an addend
	// (label+offset); the loader must re-derive the addend.
	RelImm32Add

	numRelocKinds
)

// String returns a short name for the relocation kind.
func (k RelocKind) String() string {
	switch k {
	case RelWord:
		return "word"
	case RelImm32:
		return "imm32"
	case RelImm32Add:
		return "imm32+add"
	default:
		return fmt.Sprintf("reloc(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined relocation kind.
func (k RelocKind) Valid() bool { return k < numRelocKinds }

// Reloc is one relocation entry. Offset is relative to the start of the
// image (text base); the addressed word must lie entirely within
// text+data.
type Reloc struct {
	Offset uint32
	Kind   RelocKind
}

// Image is a parsed (or under-construction) TELF image.
type Image struct {
	// Name is a short human-readable task name (max 31 bytes encoded).
	Name string
	// Entry is the entry point as an offset into Text. The EA-MPU
	// enforces that secure tasks are only ever entered here.
	Entry uint32
	// Text is the code section.
	Text []byte
	// Data is the initialized data section, placed directly after Text.
	Data []byte
	// BSSSize is the size in bytes of the zero-initialized section.
	BSSSize uint32
	// StackSize is the stack size in bytes the loader must reserve.
	StackSize uint32
	// Relocs lists the absolute-address fixups, sorted by Offset.
	Relocs []Reloc
}

// Errors returned by Decode and Validate.
var (
	ErrBadMagic   = errors.New("telf: bad magic")
	ErrBadVersion = errors.New("telf: unsupported version")
	ErrCorrupt    = errors.New("telf: corrupt image")
)

// Specific corruption classes. Each wraps ErrCorrupt, so existing
// errors.Is(err, ErrCorrupt) checks keep matching while callers that
// care (the loader's denial events, the linter) can name the exact
// structural defect.
var (
	ErrTruncated     = fmt.Errorf("%w: truncated", ErrCorrupt)
	ErrSizeMismatch  = fmt.Errorf("%w: section sizes disagree with image size", ErrCorrupt)
	ErrEntryRange    = fmt.Errorf("%w: entry point outside text", ErrCorrupt)
	ErrEntryAlign    = fmt.Errorf("%w: entry point not word-aligned", ErrCorrupt)
	ErrNameLong      = fmt.Errorf("%w: name too long", ErrCorrupt)
	ErrRelocKind     = fmt.Errorf("%w: unknown relocation kind", ErrCorrupt)
	ErrRelocAlign    = fmt.Errorf("%w: relocation offset not word-aligned", ErrCorrupt)
	ErrRelocRange    = fmt.Errorf("%w: relocation outside sections", ErrCorrupt)
	ErrRelocStraddle = fmt.Errorf("%w: relocation straddles the text/data boundary", ErrCorrupt)
	ErrRelocOrder    = fmt.Errorf("%w: relocation offsets not strictly increasing", ErrCorrupt)
)

// MeasuredSize returns the number of bytes covered by the RTM
// measurement: code, static data and the BSS layout (the paper measures
// "code, static data, and initial stack layout"; the stack contents are
// not part of the identity, only its size, which is hashed as part of
// the header).
func (im *Image) MeasuredSize() uint32 {
	return uint32(len(im.Text)) + uint32(len(im.Data))
}

// Validate checks structural invariants: entry inside text, relocation
// offsets word-aligned, inside text+data and not straddling the
// text/data boundary, known relocation kinds, and strictly increasing
// relocation offsets.
func (im *Image) Validate() error {
	if im.Entry >= uint32(len(im.Text)) && !(im.Entry == 0 && len(im.Text) == 0) {
		return fmt.Errorf("%w: entry %#x, text is %d bytes", ErrEntryRange, im.Entry, len(im.Text))
	}
	if im.Entry%4 != 0 {
		return fmt.Errorf("%w: entry %#x", ErrEntryAlign, im.Entry)
	}
	textEnd := uint32(len(im.Text))
	limit := textEnd + uint32(len(im.Data))
	var prev int64 = -1
	for i, r := range im.Relocs {
		if !r.Kind.Valid() {
			return fmt.Errorf("%w: reloc %d has kind %d", ErrRelocKind, i, uint8(r.Kind))
		}
		if r.Offset%4 != 0 {
			return fmt.Errorf("%w: reloc %d at %#x", ErrRelocAlign, i, r.Offset)
		}
		if r.Offset+4 > limit {
			return fmt.Errorf("%w: reloc %d at %#x, sections end at %#x", ErrRelocRange, i, r.Offset, limit)
		}
		if r.Offset < textEnd && r.Offset+4 > textEnd {
			return fmt.Errorf("%w: reloc %d at %#x, text ends at %#x", ErrRelocStraddle, i, r.Offset, textEnd)
		}
		if int64(r.Offset) <= prev {
			return fmt.Errorf("%w: reloc %d at %#x follows %#x", ErrRelocOrder, i, r.Offset, uint32(prev))
		}
		prev = int64(r.Offset)
	}
	if len(im.Name) > 31 {
		return fmt.Errorf("%w: %q is %d bytes, max 31", ErrNameLong, im.Name, len(im.Name))
	}
	return nil
}

// Encoded header layout (all little-endian):
//
//	off  size  field
//	0    4     magic
//	4    2     version
//	6    2     reserved (0)
//	8    32    name (NUL padded)
//	40   4     entry
//	44   4     text size
//	48   4     data size
//	52   4     bss size
//	56   4     stack size
//	60   4     reloc count
//	64   ...   text ‖ data ‖ relocs (5 bytes each: offset u32, kind u8)
const headerSize = 64

// relocEntrySize is the encoded size of one relocation entry.
const relocEntrySize = 5

// EncodedSize returns the size in bytes of the encoded image.
func (im *Image) EncodedSize() int {
	return headerSize + len(im.Text) + len(im.Data) + relocEntrySize*len(im.Relocs)
}

// Encode serializes the image. It returns an error if Validate fails.
func (im *Image) Encode() ([]byte, error) {
	if err := im.Validate(); err != nil {
		return nil, err
	}
	b := make([]byte, 0, im.EncodedSize())
	b = binary.LittleEndian.AppendUint32(b, Magic)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = binary.LittleEndian.AppendUint16(b, 0)
	var name [32]byte
	copy(name[:], im.Name)
	b = append(b, name[:]...)
	b = binary.LittleEndian.AppendUint32(b, im.Entry)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(im.Text)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(im.Data)))
	b = binary.LittleEndian.AppendUint32(b, im.BSSSize)
	b = binary.LittleEndian.AppendUint32(b, im.StackSize)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(im.Relocs)))
	b = append(b, im.Text...)
	b = append(b, im.Data...)
	for _, r := range im.Relocs {
		b = binary.LittleEndian.AppendUint32(b, r.Offset)
		b = append(b, byte(r.Kind))
	}
	return b, nil
}

// Decode parses an encoded image and validates it.
func Decode(b []byte) (*Image, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, need %d header bytes", ErrTruncated, len(b), headerSize)
	}
	if binary.LittleEndian.Uint32(b) != Magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	name := b[8:40]
	n := 0
	for n < len(name) && name[n] != 0 {
		n++
	}
	im := &Image{
		Name:      string(name[:n]),
		Entry:     binary.LittleEndian.Uint32(b[40:]),
		BSSSize:   binary.LittleEndian.Uint32(b[52:]),
		StackSize: binary.LittleEndian.Uint32(b[56:]),
	}
	textSize := binary.LittleEndian.Uint32(b[44:])
	dataSize := binary.LittleEndian.Uint32(b[48:])
	relocCount := binary.LittleEndian.Uint32(b[60:])
	need := uint64(headerSize) + uint64(textSize) + uint64(dataSize) + uint64(relocCount)*relocEntrySize
	if uint64(len(b)) != need {
		return nil, fmt.Errorf("%w: %d bytes, header describes %d", ErrSizeMismatch, len(b), need)
	}
	p := uint32(headerSize)
	im.Text = append([]byte(nil), b[p:p+textSize]...)
	p += textSize
	im.Data = append([]byte(nil), b[p:p+dataSize]...)
	p += dataSize
	im.Relocs = make([]Reloc, relocCount)
	for i := range im.Relocs {
		im.Relocs[i].Offset = binary.LittleEndian.Uint32(b[p:])
		im.Relocs[i].Kind = RelocKind(b[p+4])
		p += relocEntrySize
	}
	if err := im.Validate(); err != nil {
		return nil, err
	}
	return im, nil
}
