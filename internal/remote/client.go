package remote

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/sha1"
	"repro/internal/trusted"
)

// ClientOptions parameterizes the verifier side of the protocol. The
// zero value is ready: the default deadline. Frames are bounded by
// DefaultMaxFrame.
type ClientOptions struct {
	// Timeout bounds each exchange's I/O (0 = DefaultIOTimeout).
	Timeout time.Duration
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Timeout == 0 {
		o.Timeout = DefaultIOTimeout
	}
	return o
}

// Client is the verifier side of the wire protocol: it owns the
// provider's trusted.Verifier and drives exchanges. Safe for concurrent
// use across connections.
type Client struct {
	v        *trusted.Verifier
	provider string
	opt      ClientOptions
}

// NewClient builds a verifier-side client for the given provider key.
func NewClient(v *trusted.Verifier, provider string, opt ClientOptions) *Client {
	return &Client{v: v, provider: provider, opt: opt.withDefaults()}
}

// Provider returns the provider name the client challenges under.
func (c *Client) Provider() string { return c.provider }

// exchange sends one challenge and reads the device's reply (no
// deadline handling and no verification; the callers wrap it).
func (c *Client) exchange(conn net.Conn, trunc, nonce uint64) (trusted.Quote, error) {
	payload, err := marshalChallenge(Challenge{
		Provider: c.provider,
		TruncID:  trunc,
		Nonce:    nonce,
	})
	if err != nil {
		return trusted.Quote{}, err
	}
	if err := writeFrame(conn, MsgChallenge, payload); err != nil {
		return trusted.Quote{}, err
	}
	typ, resp, err := readFrame(conn)
	if err != nil {
		return trusted.Quote{}, err
	}
	switch typ {
	case MsgQuote:
		return trusted.UnmarshalQuote(resp)
	case MsgError:
		return trusted.Quote{}, fmt.Errorf("%w: %s", ErrRemote, resp)
	default:
		return trusted.Quote{}, fmt.Errorf("%w: type %d", ErrBadMessage, typ)
	}
}

// Attest runs the verifier side of one exchange on conn under the
// client's I/O deadline: send the challenge, receive the quote, verify
// it against the expected full identity. It returns the verified quote.
// Flaky-network callers use AttestRetry.
func (c *Client) Attest(conn net.Conn, expected sha1.Digest, nonce uint64) (trusted.Quote, error) {
	var q trusted.Quote
	err := withDeadline(conn, c.opt.Timeout, func() error {
		var aerr error
		q, aerr = c.exchange(conn, expected.TruncatedID(), nonce)
		if aerr != nil {
			return aerr
		}
		return c.v.Verify(q, expected, nonce)
	})
	if err != nil {
		return trusted.Quote{}, err
	}
	return q, nil
}

// Challenge runs one exchange against the device-reported truncated
// identity and checks only freshness and authenticity (nonce + MAC),
// leaving identity appraisal to the caller. This is the fleet plane's
// half: it learns *what* the device runs from the authenticated quote
// and appraises the identity against its own policy (typically a
// cached known-good set) afterwards.
func (c *Client) Challenge(conn net.Conn, trunc, nonce uint64) (trusted.Quote, error) {
	var q trusted.Quote
	err := withDeadline(conn, c.opt.Timeout, func() error {
		var aerr error
		q, aerr = c.exchange(conn, trunc, nonce)
		if aerr != nil {
			return aerr
		}
		return c.v.VerifyMAC(q, nonce)
	})
	if err != nil {
		return trusted.Quote{}, err
	}
	return q, nil
}

// AwaitHello reads a device-initiated hello from conn under the
// client's I/O deadline.
func (c *Client) AwaitHello(conn net.Conn) (Hello, error) {
	var h Hello
	err := withDeadline(conn, c.opt.Timeout, func() error {
		typ, payload, err := readFrame(conn)
		if err != nil {
			return err
		}
		if typ != MsgHello {
			return fmt.Errorf("%w: type %d, want hello", ErrBadMessage, typ)
		}
		var herr error
		h, herr = unmarshalHello(payload)
		return herr
	})
	return h, err
}

// Refuse answers a device-initiated hello with an error frame: the
// plane will not attest this device. The device sees ErrRefused.
func (c *Client) Refuse(conn net.Conn, reason string) error {
	return withDeadline(conn, c.opt.Timeout, func() error {
		return writeFrame(conn, MsgError, []byte(reason))
	})
}

// Verdict closes a device-initiated session with the plane's appraisal
// outcome. The device's AttestTo blocks on this frame, so send it only
// after the plane has fully recorded the session — that ordering is
// what lets the device trust that its next hello sees current state. A
// failed verdict surfaces on the device as ErrDenied wrapping reason.
func (c *Client) Verdict(conn net.Conn, pass bool, reason string) error {
	return withDeadline(conn, c.opt.Timeout, func() error {
		payload := make([]byte, 0, 1+len(reason))
		var p byte
		if pass {
			p = 1
		}
		payload = append(payload, p)
		payload = append(payload, reason...)
		return writeFrame(conn, MsgVerdict, payload)
	})
}

// retryAttempts is AttestRetry's number of tries.
const retryAttempts = 8

// AttestRetry runs the verifier side with bounded retry: up to
// retryAttempts attempts, each of which dials a fresh connection, uses
// a fresh nonce (base nonce + attempt index, so a replayed or delayed
// quote from a failed attempt can never satisfy a later one), and
// bounds its I/O with a deadline. Transport and protocol failures are
// retried at once, without a pause; an authoritative device answer — a
// verified quote or an explicit device error (ErrRemote) — ends the
// loop immediately. Returns the quote, the number of attempts used,
// and the final error.
func (c *Client) AttestRetry(dial func() (net.Conn, error), expected sha1.Digest, nonce uint64) (trusted.Quote, int, error) {
	var lastErr error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		conn, err := dial()
		if err != nil {
			lastErr = err
			continue
		}
		q, err := c.Attest(conn, expected, nonce+uint64(attempt))
		conn.Close()
		if err == nil {
			return q, attempt + 1, nil
		}
		lastErr = err
		if errors.Is(err, ErrRemote) {
			// The device answered: the task is not attestable. Retrying
			// cannot change an authoritative refusal.
			return trusted.Quote{}, attempt + 1, err
		}
	}
	return trusted.Quote{}, retryAttempts, fmt.Errorf("remote: attestation failed after %d attempts: %w", retryAttempts, lastErr)
}
