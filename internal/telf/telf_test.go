package telf

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleImage() *Image {
	return &Image{
		Name:      "sensor",
		Entry:     4,
		Text:      []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		Data:      []byte{0xAA, 0xBB, 0xCC, 0xDD},
		BSSSize:   64,
		StackSize: 256,
		Relocs:    []Reloc{{Offset: 0, Kind: RelImm32}, {Offset: 12, Kind: RelWord}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	im := sampleImage()
	b, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != im.EncodedSize() {
		t.Errorf("encoded %d bytes, EncodedSize()=%d", len(b), im.EncodedSize())
	}
	out, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(im, out) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", out, im)
	}
}

func TestLoadAndMeasuredSize(t *testing.T) {
	im := sampleImage()
	if got, want := im.MeasuredSize(), uint32(16); got != want {
		t.Errorf("MeasuredSize() = %d, want %d", got, want)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Image){
		"entry outside text":    func(im *Image) { im.Entry = uint32(len(im.Text)) },
		"entry unaligned":       func(im *Image) { im.Entry = 2 },
		"reloc unaligned":       func(im *Image) { im.Relocs[0].Offset = 2 },
		"reloc outside":         func(im *Image) { im.Relocs[1].Offset = 16 },
		"reloc bad kind":        func(im *Image) { im.Relocs[0].Kind = 99 },
		"reloc order":           func(im *Image) { im.Relocs[1].Offset = 0 },
		"name too long":         func(im *Image) { im.Name = string(make([]byte, 32)) },
		"reloc straddles limit": func(im *Image) { im.Relocs[1].Offset = 14 },
	}
	for name, mutate := range cases {
		im := sampleImage()
		mutate(im)
		if err := im.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", name)
		}
		if _, err := im.Encode(); err == nil {
			t.Errorf("%s: Encode() = nil error, want error", name)
		}
	}
}

func TestValidateEmptyImage(t *testing.T) {
	im := &Image{StackSize: 128}
	if err := im.Validate(); err != nil {
		t.Errorf("empty image Validate() = %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	im := sampleImage()
	b, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}

	short := b[:10]
	if _, err := Decode(short); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short: err = %v, want ErrCorrupt", err)
	}

	badMagic := append([]byte(nil), b...)
	badMagic[0] = 'X'
	if _, err := Decode(badMagic); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: err = %v, want ErrBadMagic", err)
	}

	badVer := append([]byte(nil), b...)
	badVer[4] = 9
	if _, err := Decode(badVer); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: err = %v, want ErrBadVersion", err)
	}

	truncated := b[:len(b)-1]
	if _, err := Decode(truncated); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated: err = %v, want ErrCorrupt", err)
	}

	padded := append(append([]byte(nil), b...), 0)
	if _, err := Decode(padded); !errors.Is(err, ErrCorrupt) {
		t.Errorf("padded: err = %v, want ErrCorrupt", err)
	}
}

func TestRelocKindString(t *testing.T) {
	if RelWord.String() != "word" || RelImm32.String() != "imm32" {
		t.Error("unexpected RelocKind names")
	}
	if RelocKind(42).Valid() {
		t.Error("RelocKind(42).Valid() = true")
	}
}

// randomImage builds a structurally valid random image for property
// testing.
func randomImage(r *rand.Rand) *Image {
	textWords := 1 + r.Intn(64)
	dataWords := r.Intn(32)
	im := &Image{
		Name:      "t",
		Entry:     uint32(r.Intn(textWords)) * 4,
		Text:      make([]byte, textWords*4),
		Data:      make([]byte, dataWords*4),
		BSSSize:   uint32(r.Intn(256)),
		StackSize: uint32(r.Intn(512)),
	}
	r.Read(im.Text)
	r.Read(im.Data)
	total := (textWords + dataWords)
	off := 0
	for off < total {
		if r.Intn(3) == 0 {
			im.Relocs = append(im.Relocs, Reloc{
				Offset: uint32(off) * 4,
				Kind:   RelocKind(r.Intn(int(numRelocKinds))),
			})
		}
		off += 1 + r.Intn(4)
	}
	return im
}

// TestRoundTripQuick property-tests that arbitrary valid images survive
// an encode/decode round trip byte-for-byte.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		im := randomImage(rand.New(rand.NewSource(seed)))
		b, err := im.Encode()
		if err != nil {
			return false
		}
		out, err := Decode(b)
		if err != nil {
			return false
		}
		b2, err := out.Encode()
		if err != nil {
			return false
		}
		return bytes.Equal(b, b2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeNeverPanics fuzzes Decode with arbitrary bytes: it must fail
// cleanly, never panic, on garbage input.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("Decode panicked on %x: %v", b, p)
			}
		}()
		Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeMutated flips random header bytes of a valid image; Decode
// must either fail or produce a Validate-clean image — never a corrupt
// one.
func TestDecodeMutated(t *testing.T) {
	im := sampleImage()
	b, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		m := append([]byte(nil), b...)
		m[r.Intn(headerSize)] ^= byte(1 << r.Intn(8))
		out, err := Decode(m)
		if err != nil {
			continue
		}
		if verr := out.Validate(); verr != nil {
			t.Fatalf("Decode accepted image failing Validate: %v", verr)
		}
	}
}

// TestTypedValidateErrors pins the specific sentinel each structural
// defect maps to, and that every one still matches ErrCorrupt (callers
// that only care about "corrupt" keep working).
func TestTypedValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Image)
		want   error
	}{
		{"entry outside text", func(im *Image) { im.Entry = uint32(len(im.Text)) }, ErrEntryRange},
		{"entry unaligned", func(im *Image) { im.Entry = 2 }, ErrEntryAlign},
		{"reloc unaligned", func(im *Image) { im.Relocs[0].Offset = 2 }, ErrRelocAlign},
		{"reloc outside", func(im *Image) { im.Relocs[1].Offset = 16 }, ErrRelocRange},
		{"reloc bad kind", func(im *Image) { im.Relocs[0].Kind = 99 }, ErrRelocKind},
		{"reloc order", func(im *Image) { im.Relocs[1].Offset = 0 }, ErrRelocOrder},
		{"name too long", func(im *Image) { im.Name = string(make([]byte, 32)) }, ErrNameLong},
		{"reloc straddles text/data", func(im *Image) {
			// Unpadded 10-byte text: an aligned reloc word at 8 covers
			// text[8:10] plus data[0:2].
			im.Entry = 0
			im.Text = im.Text[:10]
			im.Relocs = []Reloc{{Offset: 8, Kind: RelWord}}
		}, ErrRelocStraddle},
	}
	for _, tc := range cases {
		im := sampleImage()
		tc.mutate(im)
		err := im.Validate()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v does not wrap ErrCorrupt", tc.name, err)
		}
	}
}

// TestTypedDecodeErrors pins the sentinels for byte-level corruption.
func TestTypedDecodeErrors(t *testing.T) {
	im := sampleImage()
	b, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(b[:10]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: err = %v, want ErrTruncated", err)
	}
	if _, err := Decode(b[:len(b)-1]); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("trailing byte cut: err = %v, want ErrSizeMismatch", err)
	}
	if _, err := Decode(append(append([]byte(nil), b...), 0)); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("padded: err = %v, want ErrSizeMismatch", err)
	}
}

// BenchmarkDecode times decoding one encoded task image, the first step
// of every load.
func BenchmarkDecode(b *testing.B) {
	blob, err := sampleImage().Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
}
