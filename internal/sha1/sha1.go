// Package sha1 implements the SHA-1 hash with an explicitly resumable,
// block-oriented state.
//
// TyTAN's RTM task "must be interruptible during the hash calculation"
// (§3): measurement of a task proceeds one 64-byte compression at a
// time, and the hash state survives arbitrarily many pre-emptions in
// between. The standard library's implementation hides its state behind
// an interface; this implementation exposes exactly the unit of work the
// scheduler interleaves — one compression — so the RTM task (see
// internal/trusted) can charge CostMeasurePerBlock per step and yield
// between steps.
//
// The paper uses SHA-1 and notes other hash algorithms work too; the
// choice is historical (2015) and this package is faithful to it. It is
// verified bit-for-bit against crypto/sha1 in the tests.
package sha1

import (
	"encoding/binary"
	"math/bits"
)

// Size is the digest length in bytes.
const Size = 20

// BlockSize is the compression block length in bytes.
const BlockSize = 64

// Digest is a SHA-1 digest.
type Digest [Size]byte

// State is a running SHA-1 computation. The zero value is not valid;
// use New. State is a plain value: copying it snapshots the
// computation, which is how measurement survives task unload/reload
// races (the RTM clones the state before risky steps).
type State struct {
	h   [5]uint32
	len uint64
	buf [BlockSize]byte
	n   int
}

// New returns an initialized SHA-1 state.
func New() State {
	return State{h: [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}}
}

// Blocks returns the number of full compressions performed so far.
func (s *State) Blocks() uint64 { return s.len / BlockSize }

// BufferedBytes returns how many bytes are waiting for the next full
// block.
func (s *State) BufferedBytes() int { return s.n }

// Write absorbs p into the state, compressing as full blocks form. It
// never fails; the error return satisfies io.Writer.
func (s *State) Write(p []byte) (int, error) {
	total := len(p)
	s.len += uint64(total)
	if s.n > 0 {
		c := copy(s.buf[s.n:], p)
		s.n += c
		p = p[c:]
		if s.n == BlockSize {
			s.compress(s.buf[:])
			s.n = 0
		}
	}
	for len(p) >= BlockSize {
		s.compress(p[:BlockSize])
		p = p[BlockSize:]
	}
	s.n += copy(s.buf[s.n:], p)
	return total, nil
}

// WriteBlock absorbs exactly one aligned 64-byte block. It panics if
// bytes are currently buffered (mixed use with a partial Write) or if
// the block is not 64 bytes: the RTM task feeds the measurement in
// whole blocks by construction, so a violation is a programming error.
func (s *State) WriteBlock(block []byte) {
	if s.n != 0 {
		panic("sha1: WriteBlock with buffered bytes")
	}
	if len(block) != BlockSize {
		panic("sha1: WriteBlock of wrong size")
	}
	s.len += BlockSize
	s.compress(block)
}

// Sum finalizes a copy of the state and returns the digest. The state
// itself remains usable for further writes (finalization does not
// mutate it).
func (s *State) Sum() Digest {
	c := *s // finalize a copy
	var pad [BlockSize + 8]byte
	pad[0] = 0x80
	padLen := BlockSize - int((c.len+9)%BlockSize) + 1
	if padLen == BlockSize+1 {
		padLen = 1
	}
	binary.BigEndian.PutUint64(pad[padLen:], c.len*8)
	c.Write(pad[:padLen+8])
	var d Digest
	for i, v := range c.h {
		binary.BigEndian.PutUint32(d[i*4:], v)
	}
	return d
}

// Sum1 computes the SHA-1 digest of data in one call.
func Sum1(data []byte) Digest {
	s := New()
	s.Write(data)
	return s.Sum()
}

// Round constants of the four round groups.
const (
	k0 = 0x5A827999
	k1 = 0x6ED9EBA1
	k2 = 0x8F1BBCDC
	k3 = 0xCA62C1D6
)

// compress performs one SHA-1 compression over a 64-byte block.
//
// It is fully unrolled so the state stays in registers: the message
// schedule is a ring of sixteen named words (w[i] overwrites w[i-16]),
// and instead of shifting a..e after every round the code renames
// them — round i writes its new a into the variable that held e and
// rotates b in place, so five consecutive rounds cycle the names back
// to where they started.
func (s *State) compress(p []byte) {
	_ = p[BlockSize-1] // one bounds check for the sixteen loads
	w0 := binary.BigEndian.Uint32(p[0:])
	w1 := binary.BigEndian.Uint32(p[4:])
	w2 := binary.BigEndian.Uint32(p[8:])
	w3 := binary.BigEndian.Uint32(p[12:])
	w4 := binary.BigEndian.Uint32(p[16:])
	w5 := binary.BigEndian.Uint32(p[20:])
	w6 := binary.BigEndian.Uint32(p[24:])
	w7 := binary.BigEndian.Uint32(p[28:])
	w8 := binary.BigEndian.Uint32(p[32:])
	w9 := binary.BigEndian.Uint32(p[36:])
	w10 := binary.BigEndian.Uint32(p[40:])
	w11 := binary.BigEndian.Uint32(p[44:])
	w12 := binary.BigEndian.Uint32(p[48:])
	w13 := binary.BigEndian.Uint32(p[52:])
	w14 := binary.BigEndian.Uint32(p[56:])
	w15 := binary.BigEndian.Uint32(p[60:])
	a, b, c, d, e := s.h[0], s.h[1], s.h[2], s.h[3], s.h[4]

	// Rounds 0-19: choose.
	e, b = choose(a, b, c, d, e, w0)
	d, a = choose(e, a, b, c, d, w1)
	c, e = choose(d, e, a, b, c, w2)
	b, d = choose(c, d, e, a, b, w3)
	a, c = choose(b, c, d, e, a, w4)
	e, b = choose(a, b, c, d, e, w5)
	d, a = choose(e, a, b, c, d, w6)
	c, e = choose(d, e, a, b, c, w7)
	b, d = choose(c, d, e, a, b, w8)
	a, c = choose(b, c, d, e, a, w9)
	e, b = choose(a, b, c, d, e, w10)
	d, a = choose(e, a, b, c, d, w11)
	c, e = choose(d, e, a, b, c, w12)
	b, d = choose(c, d, e, a, b, w13)
	a, c = choose(b, c, d, e, a, w14)
	e, b = choose(a, b, c, d, e, w15)
	w0 = schedule(w13, w8, w2, w0)
	d, a = choose(e, a, b, c, d, w0)
	w1 = schedule(w14, w9, w3, w1)
	c, e = choose(d, e, a, b, c, w1)
	w2 = schedule(w15, w10, w4, w2)
	b, d = choose(c, d, e, a, b, w2)
	w3 = schedule(w0, w11, w5, w3)
	a, c = choose(b, c, d, e, a, w3)

	// Rounds 20-39: parity.
	w4 = schedule(w1, w12, w6, w4)
	e, b = parity(a, b, c, d, e, w4, k1)
	w5 = schedule(w2, w13, w7, w5)
	d, a = parity(e, a, b, c, d, w5, k1)
	w6 = schedule(w3, w14, w8, w6)
	c, e = parity(d, e, a, b, c, w6, k1)
	w7 = schedule(w4, w15, w9, w7)
	b, d = parity(c, d, e, a, b, w7, k1)
	w8 = schedule(w5, w0, w10, w8)
	a, c = parity(b, c, d, e, a, w8, k1)
	w9 = schedule(w6, w1, w11, w9)
	e, b = parity(a, b, c, d, e, w9, k1)
	w10 = schedule(w7, w2, w12, w10)
	d, a = parity(e, a, b, c, d, w10, k1)
	w11 = schedule(w8, w3, w13, w11)
	c, e = parity(d, e, a, b, c, w11, k1)
	w12 = schedule(w9, w4, w14, w12)
	b, d = parity(c, d, e, a, b, w12, k1)
	w13 = schedule(w10, w5, w15, w13)
	a, c = parity(b, c, d, e, a, w13, k1)
	w14 = schedule(w11, w6, w0, w14)
	e, b = parity(a, b, c, d, e, w14, k1)
	w15 = schedule(w12, w7, w1, w15)
	d, a = parity(e, a, b, c, d, w15, k1)
	w0 = schedule(w13, w8, w2, w0)
	c, e = parity(d, e, a, b, c, w0, k1)
	w1 = schedule(w14, w9, w3, w1)
	b, d = parity(c, d, e, a, b, w1, k1)
	w2 = schedule(w15, w10, w4, w2)
	a, c = parity(b, c, d, e, a, w2, k1)
	w3 = schedule(w0, w11, w5, w3)
	e, b = parity(a, b, c, d, e, w3, k1)
	w4 = schedule(w1, w12, w6, w4)
	d, a = parity(e, a, b, c, d, w4, k1)
	w5 = schedule(w2, w13, w7, w5)
	c, e = parity(d, e, a, b, c, w5, k1)
	w6 = schedule(w3, w14, w8, w6)
	b, d = parity(c, d, e, a, b, w6, k1)
	w7 = schedule(w4, w15, w9, w7)
	a, c = parity(b, c, d, e, a, w7, k1)

	// Rounds 40-59: majority.
	w8 = schedule(w5, w0, w10, w8)
	e, b = majority(a, b, c, d, e, w8)
	w9 = schedule(w6, w1, w11, w9)
	d, a = majority(e, a, b, c, d, w9)
	w10 = schedule(w7, w2, w12, w10)
	c, e = majority(d, e, a, b, c, w10)
	w11 = schedule(w8, w3, w13, w11)
	b, d = majority(c, d, e, a, b, w11)
	w12 = schedule(w9, w4, w14, w12)
	a, c = majority(b, c, d, e, a, w12)
	w13 = schedule(w10, w5, w15, w13)
	e, b = majority(a, b, c, d, e, w13)
	w14 = schedule(w11, w6, w0, w14)
	d, a = majority(e, a, b, c, d, w14)
	w15 = schedule(w12, w7, w1, w15)
	c, e = majority(d, e, a, b, c, w15)
	w0 = schedule(w13, w8, w2, w0)
	b, d = majority(c, d, e, a, b, w0)
	w1 = schedule(w14, w9, w3, w1)
	a, c = majority(b, c, d, e, a, w1)
	w2 = schedule(w15, w10, w4, w2)
	e, b = majority(a, b, c, d, e, w2)
	w3 = schedule(w0, w11, w5, w3)
	d, a = majority(e, a, b, c, d, w3)
	w4 = schedule(w1, w12, w6, w4)
	c, e = majority(d, e, a, b, c, w4)
	w5 = schedule(w2, w13, w7, w5)
	b, d = majority(c, d, e, a, b, w5)
	w6 = schedule(w3, w14, w8, w6)
	a, c = majority(b, c, d, e, a, w6)
	w7 = schedule(w4, w15, w9, w7)
	e, b = majority(a, b, c, d, e, w7)
	w8 = schedule(w5, w0, w10, w8)
	d, a = majority(e, a, b, c, d, w8)
	w9 = schedule(w6, w1, w11, w9)
	c, e = majority(d, e, a, b, c, w9)
	w10 = schedule(w7, w2, w12, w10)
	b, d = majority(c, d, e, a, b, w10)
	w11 = schedule(w8, w3, w13, w11)
	a, c = majority(b, c, d, e, a, w11)

	// Rounds 60-79: parity.
	w12 = schedule(w9, w4, w14, w12)
	e, b = parity(a, b, c, d, e, w12, k3)
	w13 = schedule(w10, w5, w15, w13)
	d, a = parity(e, a, b, c, d, w13, k3)
	w14 = schedule(w11, w6, w0, w14)
	c, e = parity(d, e, a, b, c, w14, k3)
	w15 = schedule(w12, w7, w1, w15)
	b, d = parity(c, d, e, a, b, w15, k3)
	w0 = schedule(w13, w8, w2, w0)
	a, c = parity(b, c, d, e, a, w0, k3)
	w1 = schedule(w14, w9, w3, w1)
	e, b = parity(a, b, c, d, e, w1, k3)
	w2 = schedule(w15, w10, w4, w2)
	d, a = parity(e, a, b, c, d, w2, k3)
	w3 = schedule(w0, w11, w5, w3)
	c, e = parity(d, e, a, b, c, w3, k3)
	w4 = schedule(w1, w12, w6, w4)
	b, d = parity(c, d, e, a, b, w4, k3)
	w5 = schedule(w2, w13, w7, w5)
	a, c = parity(b, c, d, e, a, w5, k3)
	w6 = schedule(w3, w14, w8, w6)
	e, b = parity(a, b, c, d, e, w6, k3)
	w7 = schedule(w4, w15, w9, w7)
	d, a = parity(e, a, b, c, d, w7, k3)
	w8 = schedule(w5, w0, w10, w8)
	c, e = parity(d, e, a, b, c, w8, k3)
	w9 = schedule(w6, w1, w11, w9)
	b, d = parity(c, d, e, a, b, w9, k3)
	w10 = schedule(w7, w2, w12, w10)
	a, c = parity(b, c, d, e, a, w10, k3)
	w11 = schedule(w8, w3, w13, w11)
	e, b = parity(a, b, c, d, e, w11, k3)
	w12 = schedule(w9, w4, w14, w12)
	d, a = parity(e, a, b, c, d, w12, k3)
	w13 = schedule(w10, w5, w15, w13)
	c, e = parity(d, e, a, b, c, w13, k3)
	w14 = schedule(w11, w6, w0, w14)
	b, d = parity(c, d, e, a, b, w14, k3)
	w15 = schedule(w12, w7, w1, w15)
	a, c = parity(b, c, d, e, a, w15, k3)

	s.h[0] += a
	s.h[1] += b
	s.h[2] += c
	s.h[3] += d
	s.h[4] += e
}

// choose is one round of the first group: f = (b AND c) OR (NOT b AND
// d), written as d XOR (b AND (c XOR d)). Every round helper returns
// the round's new a and b rotated left by 30.
func choose(a, b, c, d, e, w uint32) (uint32, uint32) {
	return bits.RotateLeft32(a, 5) + (d ^ (b & (c ^ d))) + e + k0 + w, bits.RotateLeft32(b, 30)
}

// parity is one round of the second or fourth group: f = b XOR c XOR d.
func parity(a, b, c, d, e, w, k uint32) (uint32, uint32) {
	return bits.RotateLeft32(a, 5) + (b ^ c ^ d) + e + k + w, bits.RotateLeft32(b, 30)
}

// majority is one round of the third group: f = (b AND c) OR (b AND d)
// OR (c AND d), written as (b AND c) OR (d AND (b OR c)).
func majority(a, b, c, d, e, w uint32) (uint32, uint32) {
	return bits.RotateLeft32(a, 5) + ((b & c) | (d & (b | c))) + e + k2 + w, bits.RotateLeft32(b, 30)
}

// schedule extends the message schedule by one word:
// w[i] = ROTL1(w[i-3] XOR w[i-8] XOR w[i-14] XOR w[i-16]).
func schedule(w3, w8, w14, w16 uint32) uint32 {
	return bits.RotateLeft32(w3^w8^w14^w16, 1)
}

// TruncatedID returns the first 8 bytes of the digest as a uint64. The
// TyTAN implementation "uses only the first 64 bits of the hash digest"
// as the task identity for performance (§6, footnote 9); the full
// digest remains available for remote attestation.
func (d Digest) TruncatedID() uint64 {
	return binary.BigEndian.Uint64(d[:8])
}
