package remote

import (
	"errors"
	"fmt"
	"net"
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

// TestServeConnPersistent: several exchanges on one connection, then a
// clean shutdown.
func TestServeConnPersistent(t *testing.T) {
	p, e := devicePlatform(t)
	c := oemClient(p, ClientOptions{})
	devConn, verConn := net.Pipe()
	done := make(chan error, 1)
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{})
	go func() {
		done <- srv.ServeConn(devConn)
	}()
	for nonce := uint64(1); nonce <= 3; nonce++ {
		q, err := c.Attest(verConn, e.ID, nonce)
		if err != nil {
			t.Fatalf("nonce %d: %v", nonce, err)
		}
		if q.Nonce != nonce {
			t.Errorf("echoed nonce %d, want %d", q.Nonce, nonce)
		}
	}
	verConn.Close()
	if err := <-done; err != nil {
		t.Fatalf("server exit = %v, want nil on clean close", err)
	}
}

// TestServeConnErrorBudget: a peer spewing malformed frames gets
// dropped after the budget, not served forever.
func TestServeConnErrorBudget(t *testing.T) {
	p, _ := devicePlatform(t)
	devConn, verConn := net.Pipe()
	done := make(chan error, 1)
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{})
	go func() {
		done <- srv.ServeConn(devConn)
	}()
	for i := 0; i < 3; i++ {
		if err := writeFrame(verConn, MsgQuote, []byte("junk")); err != nil {
			t.Fatal(err)
		}
		// Drain the error reply so the pipe does not block.
		if typ, _, err := readFrame(verConn); err != nil || typ != MsgError {
			t.Fatalf("reply %d: type %d err %v", i, typ, err)
		}
	}
	err := <-done
	if !errors.Is(err, ErrErrorBudget) {
		t.Fatalf("server exit = %v, want ErrErrorBudget", err)
	}
	verConn.Close()
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
// success; backoff doubles and the succeeding attempt used a fresh
// nonce.
func TestAttestRetryRecoversFromFlakyDials(t *testing.T) {
	p, e := devicePlatform(t)
	dial, dials := pipeDialer(ComponentsAttestor{C: p.C}, 2)
	var sleeps []time.Duration
	c := oemClient(p, ClientOptions{
		Attempts: 4,
		Backoff:  time.Millisecond,
		Sleep:    func(d time.Duration) { sleeps = append(sleeps, d) },
	})
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
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	if len(sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v (exponential backoff)", i, sleeps[i], want[i])
		}
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
	c := oemClient(p, ClientOptions{
		Attempts: 5,
		Backoff:  time.Millisecond,
		Sleep:    func(time.Duration) {},
	})
	_, attempts, err := c.AttestRetry(dial, ghost, 1)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if attempts != 1 || *dials != 1 {
		t.Errorf("attempts = %d, dials = %d; refusal must not be retried", attempts, *dials)
	}
}

// TestAttestRetryExhausts: if every attempt fails on transport, the
// error reports the bounded attempt count.
func TestAttestRetryExhausts(t *testing.T) {
	p, e := devicePlatform(t)
	dial, dials := pipeDialer(ComponentsAttestor{C: p.C}, 100) // always refuse
	c := oemClient(p, ClientOptions{
		Attempts: 3,
		Backoff:  time.Millisecond,
		Sleep:    func(time.Duration) {},
	})
	_, attempts, err := c.AttestRetry(dial, e.ID, 1)
	if err == nil {
		t.Fatal("retry succeeded against a dead network")
	}
	if attempts != 3 || *dials != 3 {
		t.Errorf("attempts = %d, dials = %d, want 3", attempts, *dials)
	}
}
