// Package remote implements the remote attestation protocol between a
// TyTAN device and an off-device verifier over any net.Conn — the
// "prove the integrity of its software state to another device" half
// of §3's attestation story, as an actual wire protocol rather than an
// in-process call.
//
// # Protocol
//
// All messages are length-prefixed frames: a 4-byte little-endian
// length followed by a 1-byte type and the payload.
//
//	verifier → device  MsgChallenge: provider string, truncated task
//	                   identity, 8-byte nonce
//	device  → verifier MsgQuote:     wire-format quote (see
//	                   trusted.Quote.Marshal)
//	device  → verifier MsgError:     UTF-8 reason (unknown identity,
//	                   quarantined, …)
//	device  → verifier MsgHello:     device name, provider, truncated
//	                   identity — opens a device-initiated session
//	verifier → device  MsgVerdict:   1-byte pass/fail plus UTF-8 reason —
//	                   closes a device-initiated session
//
// Verifier-initiated attestation (the classic shape) starts with
// MsgChallenge. Device-initiated attestation — the fleet shape, where
// thousands of devices dial one verifier plane — starts with MsgHello;
// the verifier answers with MsgChallenge (proceed) or MsgError
// (refused: unknown device, quarantined, …), and after the quote closes
// the session with MsgVerdict. The verdict makes the session
// synchronous end to end: when AttestTo returns, the plane has fully
// recorded the outcome, so a device's next session always sees its
// up-to-date standing.
//
// The nonce is chosen by the verifier per challenge; a replayed quote
// fails nonce verification. The channel needs no confidentiality: a
// quote discloses only the (public) task identity, and its MAC can only
// be produced by the device's Remote Attest component.
//
// # API
//
// The package surface is two types. Server is the device side: it owns
// an Attestor and answers challenges (ServeOne on one connection, Serve
// on a listener, one exchange per connection) or initiates a session
// toward a verifier plane (AttestTo). Client is the verifier side: it
// owns a trusted.Verifier and drives exchanges (Attest, AttestRetry) or
// answers device-initiated sessions (AwaitHello, Challenge, Refuse,
// Verdict). Each side's I/O deadline is its Timeout option; frames are
// bounded by DefaultMaxFrame and AttestRetry by a fixed attempt count.
// Server is the one device-side event emitter for a wire exchange: with
// ServerOptions.Obs wired it emits the quote round-trip (KindAttest
// request/reply) and the session bracket (KindSession).
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/trusted"
)

// Message types.
const (
	MsgChallenge byte = 1
	MsgQuote     byte = 2
	MsgError     byte = 3
	MsgHello     byte = 4
	MsgVerdict   byte = 5
)

// DefaultMaxFrame bounds frame sizes in both directions, type byte
// included, against malformed peers; oversize frames are rejected with
// ErrFrameTooLarge.
const DefaultMaxFrame = 4096

// Protocol errors.
var (
	ErrFrameTooLarge = errors.New("remote: frame exceeds limit")
	ErrBadMessage    = errors.New("remote: malformed message")
	ErrRemote        = errors.New("remote: device reported error")
	// ErrRefused is the device-side view of a verifier plane answering a
	// hello with MsgError: the plane will not attest this device
	// (unknown, quarantined, …).
	ErrRefused = errors.New("remote: verifier refused attestation")
	// ErrDenied is the device-side view of a failed MsgVerdict: the
	// session completed but the plane's appraisal rejected the quote.
	ErrDenied = errors.New("remote: verifier denied attestation")
)

// writeFrame sends one framed message no larger than DefaultMaxFrame
// with a single Write of header and payload.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > DefaultMaxFrame {
		return ErrFrameTooLarge
	}
	frame := make([]byte, 5, 5+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)+1))
	frame[4] = typ
	_, err := w.Write(append(frame, payload...))
	return err
}

// readFrame receives one framed message, rejecting frames larger than
// DefaultMaxFrame before allocating.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > DefaultMaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// Challenge is a verifier's attestation request.
type Challenge struct {
	// Provider selects the attestation key (multi-stakeholder support).
	Provider string
	// TruncID identifies the task to attest (the identity the verifier
	// derived from the published binary, truncated like the registry's
	// index).
	TruncID uint64
	// Nonce is the verifier's freshness challenge.
	Nonce uint64
}

// marshalChallenge encodes a challenge payload.
func marshalChallenge(c Challenge) ([]byte, error) {
	if len(c.Provider) > 255 {
		return nil, fmt.Errorf("%w: provider name too long", ErrBadMessage)
	}
	out := make([]byte, 0, 1+len(c.Provider)+16)
	out = append(out, byte(len(c.Provider)))
	out = append(out, c.Provider...)
	out = binary.LittleEndian.AppendUint64(out, c.TruncID)
	out = binary.LittleEndian.AppendUint64(out, c.Nonce)
	return out, nil
}

// unmarshalChallenge decodes a challenge payload.
func unmarshalChallenge(b []byte) (Challenge, error) {
	if len(b) < 1 {
		return Challenge{}, ErrBadMessage
	}
	pl := int(b[0])
	if len(b) != 1+pl+16 {
		return Challenge{}, ErrBadMessage
	}
	return Challenge{
		Provider: string(b[1 : 1+pl]),
		TruncID:  binary.LittleEndian.Uint64(b[1+pl:]),
		Nonce:    binary.LittleEndian.Uint64(b[1+pl+8:]),
	}, nil
}

// Hello opens a device-initiated attestation session: the device names
// itself, the provider whose key it will quote under, and the truncated
// identity of the task it offers to attest. The verifier plane answers
// with a challenge (proceed) or an error frame (refused).
type Hello struct {
	// Device is the fleet-unique device name.
	Device string
	// Provider selects the attestation key the device will quote under.
	Provider string
	// TruncID is the truncated identity of the task the device offers.
	TruncID uint64
	// Session is the device's 0-based session ordinal — its count of
	// previously initiated sessions. Together with Device it forms the
	// fleet-wide session correlation key: the plane's verdict events
	// echo it, so device-side and plane-side telemetry for the same
	// session can be joined across the two time domains. The
	// verdict-before-next-hello edge makes the ordinal totally ordered
	// per device.
	Session uint64
}

// marshalHello encodes a hello payload.
func marshalHello(h Hello) ([]byte, error) {
	if len(h.Device) > 255 || len(h.Provider) > 255 {
		return nil, fmt.Errorf("%w: hello field too long", ErrBadMessage)
	}
	out := make([]byte, 0, 2+len(h.Device)+len(h.Provider)+16)
	out = append(out, byte(len(h.Device)))
	out = append(out, h.Device...)
	out = append(out, byte(len(h.Provider)))
	out = append(out, h.Provider...)
	out = binary.LittleEndian.AppendUint64(out, h.TruncID)
	out = binary.LittleEndian.AppendUint64(out, h.Session)
	return out, nil
}

// unmarshalHello decodes a hello payload.
func unmarshalHello(b []byte) (Hello, error) {
	if len(b) < 1 {
		return Hello{}, ErrBadMessage
	}
	dl := int(b[0])
	if len(b) < 1+dl+1 {
		return Hello{}, ErrBadMessage
	}
	pl := int(b[1+dl])
	if len(b) != 1+dl+1+pl+16 {
		return Hello{}, ErrBadMessage
	}
	return Hello{
		Device:   string(b[1 : 1+dl]),
		Provider: string(b[2+dl : 2+dl+pl]),
		TruncID:  binary.LittleEndian.Uint64(b[2+dl+pl:]),
		Session:  binary.LittleEndian.Uint64(b[2+dl+pl+8:]),
	}, nil
}

// Attestor is the device-side capability the server needs: resolve a
// truncated identity and quote the task under a provider key.
// *core.Platform satisfies it through the thin adapter below;
// the indirection keeps this package free of a core dependency.
type Attestor interface {
	// QuoteByTruncID quotes the loaded task with the given truncated
	// identity under the provider's attestation key.
	QuoteByTruncID(provider string, trunc uint64, nonce uint64) (trusted.Quote, error)
}

// ComponentsAttestor adapts the trusted components to the Attestor
// interface.
type ComponentsAttestor struct {
	C *trusted.Components
}

// QuoteByTruncID implements Attestor.
func (a ComponentsAttestor) QuoteByTruncID(provider string, trunc, nonce uint64) (trusted.Quote, error) {
	e, _, err := a.C.RTM.LookupByTruncID(trunc)
	if err != nil {
		return trusted.Quote{}, err
	}
	return a.C.Attest.QuoteTaskForProvider(provider, e.Task.ID, nonce)
}
