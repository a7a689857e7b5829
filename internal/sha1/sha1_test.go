package sha1

import (
	"bytes"
	stdsha1 "crypto/sha1"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKnownVectors(t *testing.T) {
	cases := map[string]string{
		"":    "da39a3ee5e6b4b0d3255bfef95601890afd80709",
		"abc": "a9993e364706816aba3e25717850c26c9cd0d89d",
		"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq": "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
	}
	for in, want := range cases {
		d := Sum1([]byte(in))
		got := hex.EncodeToString(d[:])
		if got != want {
			t.Errorf("SHA1(%q) = %s, want %s", in, got, want)
		}
	}
}

// TestMatchesStdlibQuick property-tests agreement with crypto/sha1 on
// random inputs of random lengths.
func TestMatchesStdlibQuick(t *testing.T) {
	f := func(data []byte) bool {
		ours := Sum1(data)
		std := stdsha1.Sum(data)
		return bytes.Equal(ours[:], std[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitWritesQuick: hashing a message in arbitrary chunks gives the
// same digest as hashing it whole — the property the interruptible RTM
// measurement depends on.
func TestSplitWritesQuick(t *testing.T) {
	f := func(data []byte, seed int64) bool {
		whole := Sum1(data)
		s := New()
		r := rand.New(rand.NewSource(seed))
		for len(data) > 0 {
			n := 1 + r.Intn(len(data))
			s.Write(data[:n])
			data = data[n:]
		}
		return s.Sum() == whole
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBlock(t *testing.T) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	s := New()
	for i := 0; i < len(data); i += BlockSize {
		s.WriteBlock(data[i : i+BlockSize])
	}
	if s.Blocks() != 4 {
		t.Errorf("Blocks() = %d, want 4", s.Blocks())
	}
	if got, want := s.Sum(), Sum1(data); got != want {
		t.Errorf("block-wise digest differs from whole digest")
	}
}

func TestWriteBlockPanics(t *testing.T) {
	t.Run("buffered", func(t *testing.T) {
		s := New()
		s.Write([]byte{1})
		defer func() {
			if recover() == nil {
				t.Error("no panic with buffered bytes")
			}
		}()
		s.WriteBlock(make([]byte, BlockSize))
	})
	t.Run("size", func(t *testing.T) {
		s := New()
		defer func() {
			if recover() == nil {
				t.Error("no panic on wrong block size")
			}
		}()
		s.WriteBlock(make([]byte, 32))
	})
}

func TestStateSnapshotResume(t *testing.T) {
	// Simulate the RTM being interrupted: snapshot the state, continue
	// in two different "worlds", verify independence.
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i * 7)
	}
	s := New()
	s.Write(data[:100])
	snapshot := s // value copy is a full snapshot

	s.Write(data[100:])
	full := s.Sum()

	snapshot.Write(data[100:])
	if snapshot.Sum() != full {
		t.Error("resumed snapshot digest differs")
	}
}

func TestSumDoesNotMutate(t *testing.T) {
	s := New()
	s.Write([]byte("hello "))
	before := s
	mid := s.Sum()
	if s != before {
		t.Error("Sum changed the state")
	}
	if s.Sum() != mid {
		t.Error("repeated Sum differs")
	}
	s.Write([]byte("world"))
	if s.Sum() != Sum1([]byte("hello world")) {
		t.Error("Sum mutated the state")
	}
}

func TestBufferedBytes(t *testing.T) {
	s := New()
	s.Write(make([]byte, 70))
	if s.BufferedBytes() != 6 {
		t.Errorf("BufferedBytes = %d, want 6", s.BufferedBytes())
	}
}

func TestTruncatedID(t *testing.T) {
	d := Sum1([]byte("abc"))
	// First 8 bytes of a9993e364706816a... big-endian.
	if got := d.TruncatedID(); got != 0xa9993e364706816a {
		t.Errorf("TruncatedID = %#x", got)
	}
	// Distinct inputs give distinct truncated IDs (sanity, not proof).
	if Sum1([]byte("abd")).TruncatedID() == got64(d) {
		t.Error("collision on trivial inputs")
	}
}

func got64(d Digest) uint64 { return d.TruncatedID() }

func TestPaddingBoundaries(t *testing.T) {
	// Lengths around the 55/56/64 padding boundaries are the classic
	// SHA-1 bug nests; compare each against the standard library.
	for n := 50; n <= 130; n++ {
		data := bytes.Repeat([]byte{0xA5}, n)
		ours := Sum1(data)
		std := stdsha1.Sum(data)
		if !bytes.Equal(ours[:], std[:]) {
			t.Fatalf("length %d: digest mismatch", n)
		}
	}
}

// FuzzSHA1 differentially checks every way the platform feeds the
// state against crypto/sha1: Writes split at two arbitrary points,
// WriteBlock over the block-aligned prefix (the RTM's path) followed by
// a Write of the tail, and a mid-stream copy that is resumed after the
// original has moved on. Each digest must equal crypto/sha1.Sum.
func FuzzSHA1(f *testing.F) {
	f.Add([]byte(""), uint16(0), uint16(0))
	f.Add([]byte("abc"), uint16(1), uint16(2))
	f.Add(bytes.Repeat([]byte{0xA5}, 55), uint16(55), uint16(0))
	f.Add(bytes.Repeat([]byte{0x5A}, 64), uint16(63), uint16(64))
	f.Add(bytes.Repeat([]byte{0x3C}, 200), uint16(64), uint16(129))
	f.Fuzz(func(t *testing.T, data []byte, i, j uint16) {
		want := Digest(stdsha1.Sum(data))
		a, b := int(i)%(len(data)+1), int(j)%(len(data)+1)
		if a > b {
			a, b = b, a
		}

		split := New()
		split.Write(data[:a])
		split.Write(data[a:b])
		split.Write(data[b:])
		if got := split.Sum(); got != want {
			t.Fatalf("split writes at %d, %d: %x, want %x", a, b, got, want)
		}

		blocks := New()
		aligned := len(data) &^ (BlockSize - 1)
		for off := 0; off < aligned; off += BlockSize {
			blocks.WriteBlock(data[off : off+BlockSize])
		}
		blocks.Write(data[aligned:])
		if got := blocks.Sum(); got != want {
			t.Fatalf("WriteBlock over %d aligned bytes: %x, want %x", aligned, got, want)
		}

		orig := New()
		orig.Write(data[:a])
		snapshot := orig
		orig.Write([]byte("diverged"))
		snapshot.Write(data[a:])
		if got := snapshot.Sum(); got != want {
			t.Fatalf("snapshot at %d resumed: %x, want %x", a, got, want)
		}
		diverged := append(append([]byte(nil), data[:a]...), "diverged"...)
		if got := orig.Sum(); got != Digest(stdsha1.Sum(diverged)) {
			t.Fatalf("original after snapshot at %d: %x, want %x", a, got, stdsha1.Sum(diverged))
		}
	})
}
