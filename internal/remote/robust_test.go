package remote

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/trusted"
)

// TestAttestTimesOutOnSilentPeer: a device that never answers (or never
// reads) cannot hang the verifier past its deadline.
func TestAttestTimesOutOnSilentPeer(t *testing.T) {
	p, e := devicePlatform(t)
	c := oemClient(p, ClientOptions{Timeout: 50 * time.Millisecond})
	// No server goroutine: the pipe blocks forever.
	_, verConn := net.Pipe()
	defer verConn.Close()
	_, err := c.Attest(verConn, e.ID, 1)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestServeOneTimesOutOnSilentClient: a client that connects and goes
// silent cannot hang the device.
func TestServeOneTimesOutOnSilentClient(t *testing.T) {
	p, _ := devicePlatform(t)
	devConn, verConn := net.Pipe()
	defer verConn.Close()
	defer devConn.Close()
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{Timeout: 50 * time.Millisecond})
	err := srv.ServeOne(devConn)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// pipeDialer dials a fresh in-memory connection to a ServeOne instance,
// failing the first failures dials.
func pipeDialer(att Attestor, failures int) (func() (net.Conn, error), *int) {
	srv := NewServer(att, ServerOptions{})
	dials := 0
	dial := func() (net.Conn, error) {
		dials++
		if dials <= failures {
			return nil, fmt.Errorf("dial refused (attempt %d)", dials)
		}
		devConn, verConn := net.Pipe()
		go func() {
			srv.ServeOne(devConn)
			devConn.Close()
		}()
		return verConn, nil
	}
	return dial, &dials
}

// TestAttestRetryRecoversFromFlakyDials: two dial failures, then
// success; the succeeding attempt used a fresh nonce.
func TestAttestRetryRecoversFromFlakyDials(t *testing.T) {
	p, e := devicePlatform(t)
	dial, dials := pipeDialer(ComponentsAttestor{C: p.C}, 2)
	c := oemClient(p, ClientOptions{})
	q, attempts, err := c.AttestRetry(dial, e.ID, 100)
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if attempts != 3 || *dials != 3 {
		t.Errorf("attempts = %d, dials = %d, want 3", attempts, *dials)
	}
	// Fresh nonce per attempt: base 100, third attempt → 102.
	if q.Nonce != 102 {
		t.Errorf("nonce = %d, want 102", q.Nonce)
	}
}

// TestAttestRetryStopsOnAuthoritativeRefusal: a device that answers
// "unknown identity" is believed the first time; retrying is pointless.
func TestAttestRetryStopsOnAuthoritativeRefusal(t *testing.T) {
	p, _ := devicePlatform(t)
	dial, dials := pipeDialer(ComponentsAttestor{C: p.C}, 0)
	im, err2 := asm.Assemble(".task \"ghost2\"\n.entry e\n.text\ne:\n hlt\n")
	if err2 != nil {
		t.Fatal(err2)
	}
	ghost := trusted.IdentityOfImage(im)
	c := oemClient(p, ClientOptions{})
	_, attempts, err := c.AttestRetry(dial, ghost, 1)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if attempts != 1 || *dials != 1 {
		t.Errorf("attempts = %d, dials = %d; refusal must not be retried", attempts, *dials)
	}
}

// TestAttestRetryExhausts: if every attempt fails on transport, the
// loop stops at retryAttempts and the error reports that count.
func TestAttestRetryExhausts(t *testing.T) {
	p, e := devicePlatform(t)
	dial, dials := pipeDialer(ComponentsAttestor{C: p.C}, 100) // always refuse
	c := oemClient(p, ClientOptions{})
	_, attempts, err := c.AttestRetry(dial, e.ID, 1)
	if err == nil {
		t.Fatal("retry succeeded against a dead network")
	}
	if attempts != retryAttempts || *dials != retryAttempts {
		t.Errorf("attempts = %d, dials = %d, want %d", attempts, *dials, retryAttempts)
	}
	if want := fmt.Sprintf("after %d attempts", retryAttempts); !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want it to report %q", err, want)
	}
}
