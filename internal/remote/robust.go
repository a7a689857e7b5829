package remote

import (
	"errors"
	"fmt"
	"net"
	"time"
)

// Robustness layer: deadlines on every exchange, bounded retry with a
// fresh nonce per attempt on the verifier side (Client.AttestRetry),
// and one exchange per accepted connection on the device side
// (Server.Serve drops a bad peer after its one exchange). A flaky or
// hostile network can delay an attestation verdict but can never hang
// either endpoint or wedge the server on one bad peer.

// DefaultIOTimeout bounds one exchange's network I/O when the caller
// does not specify a deadline.
const DefaultIOTimeout = 2 * time.Second

// ErrTimeout wraps network timeouts so callers can match them without
// digging for net.Error.
var ErrTimeout = errors.New("remote: i/o timeout")

// wrapTimeout rewraps network timeout errors in ErrTimeout, leaving
// everything else (including io.EOF) untouched. A nil error returns
// before errors.As, whose target escapes: an exchange that succeeds
// allocates nothing here.
func wrapTimeout(err error) error {
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	}
	return err
}

// withDeadline runs f with an absolute I/O deadline of d from now on
// conn (cleared afterwards), mapping timeouts to ErrTimeout.
func withDeadline(conn net.Conn, d time.Duration, f func() error) error {
	if d > 0 {
		// Real socket deadlines live in wall-clock time, not simulated
		// cycles. //tytan:allow hosttime
		conn.SetDeadline(time.Now().Add(d))
		defer conn.SetDeadline(time.Time{})
	}
	return wrapTimeout(f())
}
