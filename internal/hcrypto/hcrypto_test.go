package hcrypto

import (
	"bytes"
	stdhmac "crypto/hmac"
	stdsha1 "crypto/sha1"
	"encoding/hex"
	"testing"
	"testing/quick"

	"repro/internal/sha1"
)

// TestHMACMatchesStdlibQuick verifies our HMAC-SHA1 against
// crypto/hmac for arbitrary keys (including > block size) and messages.
func TestHMACMatchesStdlibQuick(t *testing.T) {
	f := func(key, msg []byte) bool {
		ours := HMAC(key, msg)
		h := stdhmac.New(stdsha1.New, key)
		h.Write(msg)
		return bytes.Equal(ours[:], h.Sum(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestKeyMatchesStdlibQuick reuses one Key across many messages, as a
// verifier does, and checks every MAC against crypto/hmac: MAC must not
// disturb the midstates. Keys run past the block size and messages
// cover the lengths around the padding boundaries.
func TestKeyMatchesStdlibQuick(t *testing.T) {
	lengths := []int{0, 55, 56, 63, 64, 65}
	f := func(key []byte, extra uint8, seed []byte) bool {
		key = append(key, bytes.Repeat([]byte{0x5A}, int(extra))...) // up to 255 more: past the block size
		k := NewKey(key)
		std := stdhmac.New(stdsha1.New, key)
		msg := bytes.Repeat(append(seed, 1), 65)
		for _, n := range append(lengths, len(seed)) {
			std.Reset()
			std.Write(msg[:n])
			if got := k.MAC(msg[:n]); !bytes.Equal(got[:], std.Sum(nil)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestKeyMACAllocs: a MAC under a prepared Key allocates nothing.
func TestKeyMACAllocs(t *testing.T) {
	k := NewKey([]byte("attestation key"))
	msg := make([]byte, 28)
	if n := testing.AllocsPerRun(100, func() { sinkDigest = k.MAC(msg) }); n != 0 {
		t.Errorf("Key.MAC allocates %v times per call, want 0", n)
	}
}

var sinkDigest sha1.Digest

func TestHMACLongKey(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 200) // forces key hashing
	ours := HMAC(key, []byte("m"))
	h := stdhmac.New(stdsha1.New, key)
	h.Write([]byte("m"))
	if !bytes.Equal(ours[:], h.Sum(nil)) {
		t.Error("long-key HMAC mismatch")
	}
}

func TestDeriveKeySeparation(t *testing.T) {
	kp := []byte("platform-key")
	ka := DeriveKey(kp, "attest", []byte("provider-1"))
	ks := DeriveKey(kp, "storage", []byte("provider-1"))
	ka2 := DeriveKey(kp, "attest", []byte("provider-2"))
	if bytes.Equal(ka, ks) {
		t.Error("label does not separate keys")
	}
	if bytes.Equal(ka, ka2) {
		t.Error("context does not separate keys")
	}
	if len(ka) != sha1.Size {
		t.Errorf("key length %d", len(ka))
	}
	// Deterministic.
	if !bytes.Equal(ka, DeriveKey(kp, "attest", []byte("provider-1"))) {
		t.Error("derivation not deterministic")
	}
	// Label/context boundary: ("ab","c") != ("a","bc").
	if bytes.Equal(DeriveKey(kp, "ab", []byte("c")), DeriveKey(kp, "a", []byte("bc"))) {
		t.Error("ambiguous label/context encoding")
	}
}

func TestTaskKeyBinding(t *testing.T) {
	kp := []byte("platform-key")
	idA := sha1.Sum1([]byte("task a binary"))
	idB := sha1.Sum1([]byte("task b binary"))
	if bytes.Equal(TaskKey(kp, idA), TaskKey(kp, idB)) {
		t.Error("different identities share a task key")
	}
	if bytes.Equal(TaskKey(kp, idA), TaskKey([]byte("other platform"), idA)) {
		t.Error("different platforms share a task key")
	}
	if !bytes.Equal(TaskKey(kp, idA), TaskKey(kp, idA)) {
		t.Error("task key not deterministic")
	}
}

func TestSealUnsealRoundTripQuick(t *testing.T) {
	key := []byte("0123456789abcdef")
	f := func(nonce uint64, pt []byte) bool {
		blob := Seal(key, nonce, pt)
		if len(blob) != SealedSize(len(pt)) {
			return false
		}
		out, err := Unseal(key, blob)
		return err == nil && bytes.Equal(out, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnsealRejectsTampering(t *testing.T) {
	key := []byte("k")
	blob := Seal(key, 1, []byte("secret data"))
	for i := 0; i < len(blob); i++ {
		m := append([]byte(nil), blob...)
		m[i] ^= 0x40
		if _, err := Unseal(key, m); err != ErrAuth {
			t.Fatalf("flip at byte %d: err = %v, want ErrAuth", i, err)
		}
	}
}

func TestUnsealRejectsWrongKey(t *testing.T) {
	blob := Seal([]byte("key-a"), 1, []byte("data"))
	if _, err := Unseal([]byte("key-b"), blob); err != ErrAuth {
		t.Errorf("wrong key: err = %v, want ErrAuth", err)
	}
}

func TestUnsealRejectsShortBlob(t *testing.T) {
	if _, err := Unseal([]byte("k"), make([]byte, sealOverhead-1)); err != ErrAuth {
		t.Errorf("short blob: err = %v, want ErrAuth", err)
	}
}

func TestSealEmptyPlaintext(t *testing.T) {
	key := []byte("k")
	blob := Seal(key, 9, nil)
	out, err := Unseal(key, blob)
	if err != nil || len(out) != 0 {
		t.Errorf("empty plaintext: out=%v err=%v", out, err)
	}
}

func TestCiphertextsDifferPerNonce(t *testing.T) {
	key := []byte("k")
	a := Seal(key, 1, []byte("same message"))
	b := Seal(key, 2, []byte("same message"))
	if bytes.Equal(a[8:], b[8:]) {
		t.Error("different nonces produced identical ciphertext")
	}
}

func TestKeystreamDeterministicAndLong(t *testing.T) {
	a := make([]byte, 100)
	b := make([]byte, 100)
	k := NewKey([]byte("k"))
	keystream(&k, 7, a)
	keystream(&k, 7, b)
	if !bytes.Equal(a, b) {
		t.Error("keystream not deterministic")
	}
	// Successive MACSize windows must differ (counter advances).
	if bytes.Equal(a[:20], a[20:40]) {
		t.Error("keystream blocks repeat")
	}
}

func TestConstantTimeEqual(t *testing.T) {
	if !constantTimeEqual([]byte{1, 2}, []byte{1, 2}) {
		t.Error("equal slices compare unequal")
	}
	if constantTimeEqual([]byte{1, 2}, []byte{1, 3}) {
		t.Error("unequal slices compare equal")
	}
	if constantTimeEqual([]byte{1}, []byte{1, 2}) {
		t.Error("length mismatch compares equal")
	}
}

// TestHMACRFC2202Vectors pins the implementation to the published
// HMAC-SHA1 test vectors (RFC 2202 §3, cases 1-3).
func TestHMACRFC2202Vectors(t *testing.T) {
	cases := []struct {
		key, data []byte
		want      string
	}{
		{bytes.Repeat([]byte{0x0b}, 20), []byte("Hi There"),
			"b617318655057264e28bc0b6fb378c8ef146be00"},
		{[]byte("Jefe"), []byte("what do ya want for nothing?"),
			"effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
		{bytes.Repeat([]byte{0xaa}, 20), bytes.Repeat([]byte{0xdd}, 50),
			"125d7342b9ac11cd91a39af48aa17b4f63f175d3"},
	}
	for i, c := range cases {
		got := HMAC(c.key, c.data)
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("case %d: %x, want %s", i+1, got, c.want)
		}
	}
}
