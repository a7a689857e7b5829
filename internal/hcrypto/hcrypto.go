// Package hcrypto provides the keyed primitives TyTAN's trusted
// components build on: HMAC-SHA1, key derivation from the platform key
// Kp, and an encrypt-then-MAC sealing scheme for secure storage.
//
// Mapping to the paper:
//
//   - Remote attestation "uses Message Authentication Codes (MAC) along
//     with an attestation key Ka to prove the authenticity of idt"; Ka
//     is derived from Kp (§3). DeriveKey implements that derivation,
//     including the per-task-provider variant the paper references from
//     SANCUS.
//   - Secure storage generates "a task key Kt = HMAC(idt | Kp)" and
//     encrypts everything a task stores under Kt (§3). TaskKey and
//     Seal/Unseal implement that binding.
//
// The cipher is HMAC-SHA1 in counter mode with an encrypt-then-MAC tag —
// deliberately built from the single primitive (SHA-1) the platform
// carries, as a 2015-era deeply-embedded device would.
//
// A key's padded blocks are absorbed once per Key, so a holder of a
// long-lived key such as Ka pays only the message's compressions per
// MAC. This is a host-side cache: the guest-cycle charges for a MAC
// live with the trusted components and do not depend on it.
package hcrypto

import (
	"encoding/binary"
	"errors"

	"repro/internal/sha1"
)

// MACSize is the length of authentication tags in bytes.
const MACSize = sha1.Size

// Key is an HMAC-SHA1 key with its two padded blocks already absorbed:
// inner and outer are the SHA-1 states after key⊕ipad and key⊕opad, the
// precomputed midstates of RFC 2104 §4. A MAC under a Key then costs
// the compressions of the message alone. MAC never mutates the Key, so
// one Key can be shared by concurrent verifiers.
type Key struct {
	inner, outer sha1.State
}

// NewKey absorbs key's padded blocks. A key longer than the block size
// is hashed first, as RFC 2104 requires.
func NewKey(key []byte) Key {
	var k [sha1.BlockSize]byte
	if len(key) > sha1.BlockSize {
		d := sha1.Sum1(key)
		copy(k[:], d[:])
	} else {
		copy(k[:], key)
	}
	var pad [sha1.BlockSize]byte
	hk := Key{inner: sha1.New(), outer: sha1.New()}
	for i := range k {
		pad[i] = k[i] ^ 0x36
	}
	hk.inner.WriteBlock(pad[:])
	for i := range k {
		pad[i] = k[i] ^ 0x5C
	}
	hk.outer.WriteBlock(pad[:])
	return hk
}

// MAC computes HMAC-SHA1 of msg under k, resuming copies of the two
// midstates.
func (k *Key) MAC(msg []byte) sha1.Digest {
	inner := k.inner
	inner.Write(msg)
	id := inner.Sum()
	outer := k.outer
	outer.Write(id[:])
	return outer.Sum()
}

// HMAC computes HMAC-SHA1(key, msg) for a key used once.
func HMAC(key, msg []byte) sha1.Digest {
	k := NewKey(key)
	return k.MAC(msg)
}

// DeriveKey derives a purpose-specific key from the platform key Kp:
// HMAC(Kp, label ‖ context). The attestation key is
// DeriveKey(Kp, "attest", providerID), giving each task provider its
// own attestation key as in the SANCUS scheme the paper cites.
func DeriveKey(kp []byte, label string, context []byte) []byte {
	msg := make([]byte, 0, len(label)+1+len(context))
	msg = append(msg, label...)
	msg = append(msg, 0)
	msg = append(msg, context...)
	d := HMAC(kp, msg)
	return d[:]
}

// TaskKey computes the secure-storage key of a task:
// Kt = HMAC(idt ‖ Kp) exactly as §3 writes it (the identity is the
// HMAC message prefix, the platform key the suffix; the HMAC key is the
// platform key so possession of idt alone derives nothing).
func TaskKey(kp []byte, id sha1.Digest) []byte {
	msg := make([]byte, 0, len(id)+len(kp))
	msg = append(msg, id[:]...)
	msg = append(msg, kp...)
	d := HMAC(kp, msg)
	return d[:]
}

// keystream fills out with HMAC-CTR bytes: block i is
// HMAC(key, nonce ‖ i).
func keystream(key *Key, nonce uint64, out []byte) {
	var in [16]byte
	binary.LittleEndian.PutUint64(in[:8], nonce)
	for i := 0; len(out) > 0; i++ {
		binary.LittleEndian.PutUint64(in[8:], uint64(i))
		block := key.MAC(in[:])
		n := copy(out, block[:])
		out = out[n:]
	}
}

// ErrAuth is returned by Unseal when the tag does not verify — either
// the blob was tampered with or it was sealed under a different task
// identity.
var ErrAuth = errors.New("hcrypto: authentication failed")

// sealOverhead is the sealed-blob expansion: 8-byte nonce + tag.
const sealOverhead = 8 + MACSize

// Seal encrypts-then-MACs plaintext under key with the given nonce.
// Nonces must not repeat for the same key; the secure-storage task uses
// a per-slot write counter.
func Seal(key []byte, nonce uint64, plaintext []byte) []byte {
	out := make([]byte, 8+len(plaintext), 8+len(plaintext)+MACSize)
	binary.LittleEndian.PutUint64(out, nonce)
	k := NewKey(key)
	keystream(&k, nonce, out[8:])
	for i, p := range plaintext {
		out[8+i] ^= p
	}
	tag := k.MAC(out)
	return append(out, tag[:]...)
}

// Unseal verifies and decrypts a blob produced by Seal with the same
// key. It returns ErrAuth on any verification failure.
func Unseal(key []byte, blob []byte) ([]byte, error) {
	if len(blob) < sealOverhead {
		return nil, ErrAuth
	}
	body, tag := blob[:len(blob)-MACSize], blob[len(blob)-MACSize:]
	k := NewKey(key)
	want := k.MAC(body)
	if !constantTimeEqual(want[:], tag) {
		return nil, ErrAuth
	}
	nonce := binary.LittleEndian.Uint64(body)
	pt := make([]byte, len(body)-8)
	keystream(&k, nonce, pt)
	for i := range pt {
		pt[i] ^= body[8+i]
	}
	return pt, nil
}

// constantTimeEqual compares two equal-length byte slices without
// data-dependent early exit.
func constantTimeEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}
