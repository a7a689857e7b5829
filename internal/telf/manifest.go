package telf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/hcrypto"
	"repro/internal/sha1"
)

// Signed update packages. A TELF image by itself carries no provenance:
// the measured identity proves *what* is loaded, not *who* shipped it
// or *when*. Over-the-air update needs both, so an update package wraps
// an encoded image in a signed manifest:
//
//	off  size  field
//	0    4     manifest magic ("TYUP")
//	4    2     manifest version
//	6    2     reserved (0)
//	8    8     task version (monotonic, enforced by the update service)
//	16   4     payload size
//	20   20    payload digest (SHA-1 of the encoded TELF image)
//	40   20    MAC = HMAC(Ku, bytes[0:40])
//	60   ...   payload (the encoded TELF image)
//
// The MAC covers the header — magic through digest — and the digest
// covers the payload, so the MAC transitively authenticates the whole
// package and binds the task version to exactly one image. Ku is a
// provider-scoped update key derived from the platform key (see
// internal/trusted); the HMAC stands in for the signature the way it
// does for attestation quotes.
//
// DecodeSigned checks structure and digest (no key needed — corruption
// is detectable by anyone); SignedImage.Verify checks the MAC. The
// split matters for error taxonomy: a flipped payload bit is ErrCorrupt
// territory, a flipped MAC or a forged header is ErrBadSignature.

// ManifestMagic identifies an update package ("TYUP" little-endian) —
// deliberately distinct from Magic so a raw image is never mistaken for
// a signed package or vice versa.
const ManifestMagic uint32 = 0x50555954

// ManifestVersion is the current manifest format version.
const ManifestVersion uint16 = 1

// manifestHeaderSize is the encoded manifest size: the MACed prefix
// (40 bytes) plus the MAC itself.
const manifestHeaderSize = 40 + sha1.Size

// macedPrefixSize is how much of the header the MAC covers.
const macedPrefixSize = 40

// Manifest errors. The structural classes wrap ErrCorrupt so the
// existing errors.Is(err, ErrCorrupt) checks in the loader and the
// tooling keep matching; ErrBadSignature is deliberately *not* a
// corruption — the package may be perfectly well-formed and still not
// be from the task's provider.
var (
	ErrManifestMagic     = errors.New("telf: bad update-manifest magic")
	ErrManifestVersion   = errors.New("telf: unsupported update-manifest version")
	ErrManifestTruncated = fmt.Errorf("%w: update manifest truncated", ErrCorrupt)
	ErrManifestSize      = fmt.Errorf("%w: update-manifest payload size disagrees", ErrCorrupt)
	ErrManifestReserved  = fmt.Errorf("%w: update-manifest reserved field not zero", ErrCorrupt)
	ErrManifestDigest    = fmt.Errorf("%w: update-package payload digest mismatch", ErrCorrupt)
	ErrBadSignature      = errors.New("telf: update-manifest signature verification failed")
)

// Manifest is the parsed signed-manifest header of an update package.
type Manifest struct {
	// TaskVersion is the monotonic version the update service checks
	// against the sealed counter (rollback protection).
	TaskVersion uint64
	// Digest is the SHA-1 of the payload (the encoded TELF image).
	Digest sha1.Digest
	// MAC is HMAC(Ku, header prefix) — the package "signature".
	MAC sha1.Digest
}

// SignedImage is a decoded update package: the manifest, the inner
// image, and the raw bytes Verify re-checks the MAC over.
type SignedImage struct {
	Manifest Manifest
	Image    *Image

	prefix  [macedPrefixSize]byte
	payload []byte
}

// Payload returns the encoded inner image.
func (s *SignedImage) Payload() []byte { return s.payload }

// Sign encodes im and wraps it in a manifest for the given task version,
// MACed under key. The result decodes with DecodeSigned and verifies
// with Verify under the same key.
func Sign(im *Image, version uint64, key []byte) ([]byte, error) {
	payload, err := im.Encode()
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, manifestHeaderSize+len(payload))
	b = binary.LittleEndian.AppendUint32(b, ManifestMagic)
	b = binary.LittleEndian.AppendUint16(b, ManifestVersion)
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = binary.LittleEndian.AppendUint64(b, version)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	digest := sha1.Sum1(payload)
	b = append(b, digest[:]...)
	mac := hcrypto.HMAC(key, b[:macedPrefixSize])
	b = append(b, mac[:]...)
	b = append(b, payload...)
	return b, nil
}

// DecodeSigned parses an update package: manifest structure, payload
// digest, and the inner TELF image. It does NOT check the MAC — anyone
// can detect corruption, but only a holder of the update key can judge
// authenticity; call Verify for that.
func DecodeSigned(b []byte) (*SignedImage, error) {
	if len(b) < manifestHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes, need %d header bytes", ErrManifestTruncated, len(b), manifestHeaderSize)
	}
	if binary.LittleEndian.Uint32(b) != ManifestMagic {
		return nil, ErrManifestMagic
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != ManifestVersion {
		return nil, fmt.Errorf("%w: %d", ErrManifestVersion, v)
	}
	if r := binary.LittleEndian.Uint16(b[6:]); r != 0 {
		return nil, fmt.Errorf("%w: %#x", ErrManifestReserved, r)
	}
	s := &SignedImage{}
	s.Manifest.TaskVersion = binary.LittleEndian.Uint64(b[8:])
	paySize := binary.LittleEndian.Uint32(b[16:])
	copy(s.Manifest.Digest[:], b[20:40])
	copy(s.Manifest.MAC[:], b[40:manifestHeaderSize])
	copy(s.prefix[:], b[:macedPrefixSize])
	payload := b[manifestHeaderSize:]
	if uint64(len(payload)) != uint64(paySize) {
		return nil, fmt.Errorf("%w: %d payload bytes, header describes %d", ErrManifestSize, len(payload), paySize)
	}
	if sha1.Sum1(payload) != s.Manifest.Digest {
		return nil, ErrManifestDigest
	}
	im, err := Decode(payload)
	if err != nil {
		return nil, err
	}
	s.payload = append([]byte(nil), payload...)
	s.Image = im
	return s, nil
}

// Verify checks the manifest MAC under the update key. The MAC covers
// the header prefix (magic through payload digest), and DecodeSigned
// already proved the digest matches the payload, so a passing Verify
// authenticates the task version and the image together.
func (s *SignedImage) Verify(key []byte) error {
	want := hcrypto.HMAC(key, s.prefix[:])
	if !bytes.Equal(want[:], s.Manifest.MAC[:]) {
		return ErrBadSignature
	}
	return nil
}
