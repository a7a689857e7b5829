package remote

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// frame builds a wire frame with an arbitrary declared length (not
// necessarily matching the body) for boundary seeds.
func frame(declared uint32, body []byte) []byte {
	out := make([]byte, 4+len(body))
	binary.LittleEndian.PutUint32(out, declared)
	copy(out[4:], body)
	return out
}

func FuzzReadFrame(f *testing.F) {
	// Well-formed small frame.
	f.Add(frame(5, append([]byte{MsgChallenge}, "abcd"...)))
	// Zero-length frame (rejected).
	f.Add(frame(0, nil))
	// Exactly DefaultMaxFrame: the largest legal frame.
	f.Add(frame(DefaultMaxFrame, append([]byte{MsgQuote}, make([]byte, DefaultMaxFrame-1)...)))
	// One past the boundary: declared DefaultMaxFrame+1 (rejected before read).
	f.Add(frame(DefaultMaxFrame+1, make([]byte, DefaultMaxFrame+1)))
	// Declared huge, body tiny (must not allocate per the prefix and
	// must not hang).
	f.Add(frame(0xFFFFFFFF, []byte{1, 2, 3}))
	// Frames just below, at and just above frameInline: the first two
	// read their body into the header's allocation, the third allocates
	// its own.
	for _, n := range []int{frameInline - 1, frameInline, frameInline + 1} {
		f.Add(frame(uint32(n), append([]byte{MsgQuote}, make([]byte, n-1)...)))
	}
	// Truncated header and truncated body.
	f.Add([]byte{5, 0})
	f.Add(frame(10, []byte{MsgError, 'x'}))

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Invariants of an accepted frame: within bounds and
		// reconstructible.
		if len(payload)+1 > DefaultMaxFrame {
			t.Fatalf("accepted frame of %d bytes (> DefaultMaxFrame)", len(payload)+1)
		}
		var buf bytes.Buffer
		if werr := writeFrame(&buf, typ, payload); werr != nil {
			t.Fatalf("accepted frame cannot be re-written: %v", werr)
		}
		typ2, payload2, rerr := readFrame(&buf)
		if rerr != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatal("frame round-trip mismatch")
		}
	})
}

func FuzzUnmarshalChallenge(f *testing.F) {
	// Valid challenge.
	if b, err := challengeFrame(Challenge{Provider: "oem", TruncID: 1, Nonce: 2}); err == nil {
		f.Add(b[frameHeader:])
	}
	// Empty provider.
	if b, err := challengeFrame(Challenge{}); err == nil {
		f.Add(b[frameHeader:])
	}
	// Maximum provider length.
	if b, err := challengeFrame(Challenge{Provider: string(make([]byte, 255))}); err == nil {
		f.Add(b[frameHeader:])
	}
	// Length byte promising more than the buffer holds.
	f.Add([]byte{255, 'a', 'b'})
	// Truncated trailers.
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := unmarshalChallenge(data)
		if err != nil {
			return
		}
		b, merr := challengeFrame(c)
		if merr != nil {
			t.Fatalf("accepted challenge cannot be re-marshaled: %v", merr)
		}
		if b = b[frameHeader:]; !bytes.Equal(b, data) {
			t.Fatalf("challenge round-trip mismatch: %x != %x", b, data)
		}
	})
}

func FuzzUnmarshalHello(f *testing.F) {
	// Valid hello.
	if b, err := helloFrame(Hello{Device: "dev-1", Provider: "oem", TruncID: 7, Session: 3}); err == nil {
		f.Add(b[frameHeader:])
	}
	// A trailer that is exactly one session-ordinal short — the
	// pre-session wire form, which the current decoder must reject.
	if b, err := helloFrame(Hello{Device: "dev-1", Provider: "oem", TruncID: 7}); err == nil {
		f.Add(b[frameHeader : len(b)-8])
	}
	// Empty fields.
	if b, err := helloFrame(Hello{}); err == nil {
		f.Add(b[frameHeader:])
	}
	// Maximum field lengths.
	if b, err := helloFrame(Hello{Device: string(make([]byte, 255)), Provider: string(make([]byte, 255))}); err == nil {
		f.Add(b[frameHeader:])
	}
	// Length bytes promising more than the buffer holds.
	f.Add([]byte{255, 'a'})
	f.Add([]byte{1, 'a', 255, 'b'})
	// Truncated trailer.
	f.Add([]byte{0, 0, 1, 2, 3})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := unmarshalHello(data)
		if err != nil {
			return
		}
		b, merr := helloFrame(h)
		if merr != nil {
			t.Fatalf("accepted hello cannot be re-marshaled: %v", merr)
		}
		if b = b[frameHeader:]; !bytes.Equal(b, data) {
			t.Fatalf("hello round-trip mismatch: %x != %x", b, data)
		}
	})
}
