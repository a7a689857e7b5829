package telf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/hcrypto"
	"repro/internal/sha1"
)

func manifestImage(t *testing.T) *Image {
	t.Helper()
	im := &Image{
		Name:    "updtest",
		Entry:   0,
		Text:    []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08},
		Data:    []byte{0xAA, 0xBB, 0xCC, 0xDD},
		BSSSize: 8,
	}
	if err := im.Validate(); err != nil {
		t.Fatalf("fixture image invalid: %v", err)
	}
	return im
}

func signedPackage(t *testing.T, version uint64, key []byte) []byte {
	t.Helper()
	pkg, err := Sign(manifestImage(t), version, key)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	return pkg
}

func TestManifestRoundTrip(t *testing.T) {
	key := []byte("update-key")
	pkg := signedPackage(t, 7, key)

	s, err := DecodeSigned(pkg)
	if err != nil {
		t.Fatalf("DecodeSigned: %v", err)
	}
	if s.Manifest.TaskVersion != 7 {
		t.Fatalf("TaskVersion = %d, want 7", s.Manifest.TaskVersion)
	}
	if err := s.Verify(key); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if s.Image.Name != "updtest" {
		t.Fatalf("inner image name = %q", s.Image.Name)
	}
	if !bytes.Equal(s.Image.Text, manifestImage(t).Text) {
		t.Fatalf("inner image text differs")
	}
	// Same bytes, wrong key: structurally fine, signature refused.
	if err := s.Verify([]byte("other-key")); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("Verify(wrong key) = %v, want ErrBadSignature", err)
	}
}

func TestManifestRawImageNotSigned(t *testing.T) {
	enc, err := manifestImage(t).Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := DecodeSigned(enc); !errors.Is(err, ErrManifestMagic) {
		t.Fatalf("DecodeSigned(raw image) = %v, want ErrManifestMagic", err)
	}
}

func TestManifestCorruptionSentinels(t *testing.T) {
	key := []byte("update-key")
	pkg := signedPackage(t, 3, key)

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		want    error
		corrupt bool // must also satisfy errors.Is(err, ErrCorrupt)
	}{
		{
			name:    "truncated header",
			mutate:  func(b []byte) []byte { return b[:manifestHeaderSize-1] },
			want:    ErrManifestTruncated,
			corrupt: true,
		},
		{
			name: "bad version",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint16(b[4:], ManifestVersion+1)
				return b
			},
			want: ErrManifestVersion,
		},
		{
			name: "reserved nonzero",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint16(b[6:], 0x5A5A)
				return b
			},
			want:    ErrManifestReserved,
			corrupt: true,
		},
		{
			name: "payload size mismatch",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[16:], binary.LittleEndian.Uint32(b[16:])+4)
				return b
			},
			want:    ErrManifestSize,
			corrupt: true,
		},
		{
			name: "payload bit flip",
			mutate: func(b []byte) []byte {
				b[len(b)-1] ^= 0x40
				return b
			},
			want:    ErrManifestDigest,
			corrupt: true,
		},
		{
			name: "truncated payload",
			mutate: func(b []byte) []byte {
				return b[:len(b)-2]
			},
			want:    ErrManifestSize,
			corrupt: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), pkg...))
			_, err := DecodeSigned(b)
			if !errors.Is(err, tc.want) {
				t.Fatalf("DecodeSigned = %v, want %v", err, tc.want)
			}
			if tc.corrupt && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeSigned = %v, want it to wrap ErrCorrupt", err)
			}
			if !tc.corrupt && errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeSigned = %v, must not wrap ErrCorrupt", err)
			}
		})
	}
}

func TestManifestHeaderTamperChangesOutcome(t *testing.T) {
	key := []byte("update-key")
	pkg := signedPackage(t, 3, key)

	// Flip the task version in the header: digest still matches the
	// payload so decode succeeds, but the MAC covers the version and
	// must refuse it — this is exactly the forged-downgrade vector.
	forged := append([]byte(nil), pkg...)
	binary.LittleEndian.PutUint64(forged[8:], 99)
	s, err := DecodeSigned(forged)
	if err != nil {
		t.Fatalf("DecodeSigned(forged version): %v", err)
	}
	if s.Manifest.TaskVersion != 99 {
		t.Fatalf("TaskVersion = %d, want forged 99", s.Manifest.TaskVersion)
	}
	if err := s.Verify(key); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("Verify(forged version) = %v, want ErrBadSignature", err)
	}

	// Flip a MAC bit: decode succeeds (MAC is not structural), Verify refuses.
	macFlip := append([]byte(nil), pkg...)
	macFlip[40] ^= 0x01
	s2, err := DecodeSigned(macFlip)
	if err != nil {
		t.Fatalf("DecodeSigned(mac flip): %v", err)
	}
	if err := s2.Verify(key); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("Verify(mac flip) = %v, want ErrBadSignature", err)
	}
}

func TestManifestInnerImageErrorsPropagate(t *testing.T) {
	key := []byte("update-key")
	im := manifestImage(t)
	enc, err := im.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Break the inner TELF magic, then re-sign the broken payload so
	// digest and MAC are consistent: the manifest layer is happy and
	// the inner Decode error must surface.
	broken := append([]byte(nil), enc...)
	broken[0] ^= 0xFF
	pkg := resign(t, broken, 3, key)
	if _, err := DecodeSigned(pkg); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("DecodeSigned(broken inner) = %v, want ErrBadMagic", err)
	}
}

// resign wraps an arbitrary payload in a fresh, consistent manifest —
// the attacker-controlled path Sign refuses to produce.
func resign(t *testing.T, payload []byte, version uint64, key []byte) []byte {
	t.Helper()
	im := manifestImage(t)
	pkg, err := Sign(im, version, key)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	hdr := append([]byte(nil), pkg[:macedPrefixSize]...)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(payload)))
	d := sha1.Sum1(payload)
	copy(hdr[20:40], d[:])
	mac := hcrypto.HMAC(key, hdr)
	out := append(hdr, mac[:]...)
	return append(out, payload...)
}
