package remote

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/trusted"
)

const deviceTask = `
.task "fw"
.entry main
.stack 128
.bss 28
.text
main:
    ldi r0, 32000
    svc 2
    jmp main
`

func devicePlatform(t *testing.T) (*core.Platform, *trusted.RegistryEntry) {
	t.Helper()
	p, err := core.NewPlatform(core.Options{Provider: "oem"})
	if err != nil {
		t.Fatal(err)
	}
	im, err := asm.Assemble(deviceTask)
	if err != nil {
		t.Fatal(err)
	}
	tcb, _, err := p.LoadTaskSync(im, core.Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := p.C.RTM.LookupByTask(tcb.ID)
	if !ok {
		t.Fatal("task unregistered")
	}
	return p, e
}

func oemClient(p *core.Platform, opt ClientOptions) *Client {
	return NewClient(p.Provider("oem").Verifier(), "oem", opt)
}

// exchange runs one ServeOne/Attest pair over an in-memory pipe, the
// device side served under opt.
func exchange(t *testing.T, p *core.Platform, opt ServerOptions, doVerify func(net.Conn) error) error {
	t.Helper()
	devConn, verConn := net.Pipe()
	done := make(chan error, 1)
	srv := NewServer(ComponentsAttestor{C: p.C}, opt)
	go func() {
		defer devConn.Close()
		done <- srv.ServeOne(devConn)
	}()
	verr := doVerify(verConn)
	verConn.Close()
	if serr := <-done; serr != nil {
		t.Logf("server: %v", serr)
	}
	return verr
}

func TestAttestOverWire(t *testing.T) {
	p, e := devicePlatform(t)
	c := oemClient(p, ClientOptions{})
	err := exchange(t, p, ServerOptions{}, func(conn net.Conn) error {
		q, err := c.Attest(conn, e.ID, 0xA1B2)
		if err != nil {
			return err
		}
		if q.ID != e.ID || q.Nonce != 0xA1B2 {
			t.Errorf("quote = %+v", q)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("attest: %v", err)
	}
}

// TestWireQuoteDerivesBootKey pins a known gap (ROADMAP item 3): a
// quote of the device's boot provider through Server goes through
// Attest.QuoteTaskForProvider, which charges CostStorageKeyDerive on
// the provider's first quote although its key was derived at boot,
// while core.ProviderHandle.Quote routes the boot provider to QuoteTask
// and never charges it. That one charge is the whole gap between the
// attest p50 and p99 in BENCH_latency.json. Whoever closes the gap
// flips the first assertion.
func TestWireQuoteDerivesBootKey(t *testing.T) {
	cost := func(p *core.Platform, quote func() error) uint64 {
		before := p.M.Cycles()
		if err := quote(); err != nil {
			t.Fatal(err)
		}
		return p.M.Cycles() - before
	}
	p, e := devicePlatform(t)
	c := oemClient(p, ClientOptions{})
	wire := func() error {
		return exchange(t, p, ServerOptions{}, func(conn net.Conn) error {
			_, err := c.Attest(conn, e.ID, 1)
			return err
		})
	}
	plain := uint64(2 * machine.CostMeasurePerBlock) // a quote's two SHA-1 passes
	if first, second := cost(p, wire), cost(p, wire); first != plain+machine.CostStorageKeyDerive || second != plain {
		t.Errorf("wire quotes cost %d then %d cycles, want %d then %d",
			first, second, plain+machine.CostStorageKeyDerive, plain)
	}

	lp, le := devicePlatform(t)
	local := func() error {
		_, err := lp.Provider("oem").Quote(le.Task.ID, 1)
		return err
	}
	if first, second := cost(lp, local), cost(lp, local); first != plain || second != plain {
		t.Errorf("ProviderHandle quotes cost %d then %d cycles, want %d each", first, second, plain)
	}
}

// TestAttestUnknownIdentity: the device refuses to quote an identity it
// does not run, and the server's reply event carries the refusal reason
// as its result.
func TestAttestUnknownIdentity(t *testing.T) {
	p, _ := devicePlatform(t)
	c := oemClient(p, ClientOptions{})
	im, _ := asm.Assemble(".task \"ghost\"\n.entry e\n.text\ne:\n hlt\n")
	ghost := trusted.IdentityOfImage(im)
	buf := &trace.Buffer{}
	err := exchange(t, p, ServerOptions{Obs: buf, Cycles: p.M.Cycles}, func(conn net.Conn) error {
		_, err := c.Attest(conn, ghost, 1)
		return err
	})
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if !strings.Contains(err.Error(), "identity") {
		t.Errorf("err text = %v", err)
	}
	evs := buf.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d (%v), want a request/reply pair", len(evs), evs)
	}
	reply := evs[1]
	if ph, _ := reply.Attr("phase"); reply.Kind != trace.KindAttest || ph.Str != "reply" {
		t.Fatalf("second event = %v, want the attest reply", reply)
	}
	if res, _ := reply.Attr("result"); !strings.Contains(err.Error(), res.Str) || !strings.Contains(res.Str, "identity") {
		t.Errorf("reply result = %q, want the denial reason in %q", res.Str, err)
	}
}

func TestAttestWrongProviderKey(t *testing.T) {
	p, e := devicePlatform(t)
	// Verifier holds a different provider's key than it asks the device
	// to quote under: the MAC will not verify.
	c := NewClient(p.Provider("someone-else").Verifier(), "oem", ClientOptions{})
	err := exchange(t, p, ServerOptions{}, func(conn net.Conn) error {
		_, err := c.Attest(conn, e.ID, 7)
		return err
	})
	if !errors.Is(err, trusted.ErrQuoteInvalid) {
		t.Fatalf("err = %v, want quote rejection", err)
	}
}

func TestReplayAcrossNonces(t *testing.T) {
	p, e := devicePlatform(t)
	c := oemClient(p, ClientOptions{})
	v := p.Provider("oem").Verifier()
	// Capture a quote at nonce 5, try to pass it off at nonce 6 by
	// replaying the raw frames through a recording proxy.
	var recorded []byte
	err := exchange(t, p, ServerOptions{}, func(conn net.Conn) error {
		q, err := c.Attest(conn, e.ID, 5)
		if err != nil {
			return err
		}
		recorded = q.Marshal()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := trusted.UnmarshalQuote(recorded)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(q, e.ID, 6); err == nil {
		t.Fatal("replayed quote accepted under a fresh nonce")
	}
}

func TestServeOverTCP(t *testing.T) {
	p, e := devicePlatform(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer l.Close()
	go NewServer(ComponentsAttestor{C: p.C}, ServerOptions{}).Serve(l)

	c := oemClient(p, ClientOptions{})
	for nonce := uint64(1); nonce <= 3; nonce++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		q, err := c.Attest(conn, e.ID, nonce)
		conn.Close()
		if err != nil {
			t.Fatalf("nonce %d: %v", nonce, err)
		}
		if q.Nonce != nonce {
			t.Errorf("nonce echoed %d, want %d", q.Nonce, nonce)
		}
	}
}

func TestChallengeRoundTripQuick(t *testing.T) {
	f := func(provider string, trunc, nonce uint64) bool {
		if len(provider) > 255 {
			provider = provider[:255]
		}
		c := Challenge{Provider: provider, TruncID: trunc, Nonce: nonce}
		b, err := marshalChallenge(c)
		if err != nil {
			return false
		}
		out, err := unmarshalChallenge(b)
		return err == nil && out == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHelloRoundTripQuick(t *testing.T) {
	f := func(device, provider string, trunc, session uint64) bool {
		if len(device) > 255 {
			device = device[:255]
		}
		if len(provider) > 255 {
			provider = provider[:255]
		}
		h := Hello{Device: device, Provider: provider, TruncID: trunc, Session: session}
		b, err := marshalHello(h)
		if err != nil {
			return false
		}
		out, err := unmarshalHello(b)
		return err == nil && out == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestAttestToChallenged: a device-initiated session against a plane
// that accepts the hello and challenges; the device's quote MAC-checks
// and carries the expected identity.
func TestAttestToChallenged(t *testing.T) {
	p, e := devicePlatform(t)
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{})
	c := oemClient(p, ClientOptions{})
	devConn, verConn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		defer devConn.Close()
		done <- srv.AttestTo(devConn, Hello{Device: "dev-0", Provider: "oem", TruncID: e.ID.TruncatedID()})
	}()
	h, err := c.AwaitHello(verConn)
	if err != nil {
		t.Fatalf("await hello: %v", err)
	}
	if h.Device != "dev-0" || h.Provider != "oem" || h.TruncID != e.ID.TruncatedID() {
		t.Fatalf("hello = %+v", h)
	}
	q, err := c.Challenge(verConn, h.TruncID, 99)
	if err != nil {
		t.Fatalf("challenge: %v", err)
	}
	if q.ID != e.ID || q.Nonce != 99 {
		t.Errorf("quote = %+v", q)
	}
	if err := c.Verdict(verConn, true, ""); err != nil {
		t.Fatalf("verdict: %v", err)
	}
	verConn.Close()
	if err := <-done; err != nil {
		t.Fatalf("device side: %v", err)
	}
}

// TestAttestToSessionEvents: with Obs wired, AttestTo brackets the
// session in KindSession events — phase=hello at open, a closing
// phase=verdict event carrying the pass result and the device-cycle
// end-to-end latency — both stamped with the hello's session ordinal.
// Between them the answered challenge emits its KindAttest
// request/reply pair, and since device cycles advance only in the
// quote, the reply's rtt equals the session's e2e.
func TestAttestToSessionEvents(t *testing.T) {
	p, e := devicePlatform(t)
	buf := &trace.Buffer{}
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{Obs: buf, Cycles: p.M.Cycles})
	c := oemClient(p, ClientOptions{})
	devConn, verConn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		defer devConn.Close()
		done <- srv.AttestTo(devConn, Hello{Device: "dev-0", Provider: "oem", TruncID: e.ID.TruncatedID(), Session: 4})
	}()
	h, err := c.AwaitHello(verConn)
	if err != nil {
		t.Fatalf("await hello: %v", err)
	}
	if h.Session != 4 {
		t.Fatalf("session ordinal = %d, want 4", h.Session)
	}
	if _, err := c.Challenge(verConn, h.TruncID, 99); err != nil {
		t.Fatalf("challenge: %v", err)
	}
	if err := c.Verdict(verConn, true, ""); err != nil {
		t.Fatalf("verdict: %v", err)
	}
	verConn.Close()
	if err := <-done; err != nil {
		t.Fatalf("device side: %v", err)
	}

	evs := buf.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d (%v), want hello, request, reply, verdict", len(evs), evs)
	}
	open, request, reply, closing := evs[0], evs[1], evs[2], evs[3]
	for i, ev := range []trace.Event{open, closing} {
		if ev.Sub != trace.SubRemote || ev.Kind != trace.KindSession || ev.Subject != "dev-0" {
			t.Fatalf("session event %d = %v", i, ev)
		}
		if n, ok := ev.NumAttr("session"); !ok || n != 4 {
			t.Fatalf("session event %d ordinal = %d, %v", i, n, ok)
		}
	}
	for i, ev := range []trace.Event{request, reply} {
		if ev.Sub != trace.SubRemote || ev.Kind != trace.KindAttest || ev.Subject != "oem" {
			t.Fatalf("attest event %d = %v", i, ev)
		}
		if trunc, _ := ev.Attr("trunc"); trunc.Value() != trace.Hex("", e.ID.TruncatedID()).Value() {
			t.Fatalf("attest event %d trunc = %q", i, trunc.Value())
		}
	}
	if ph, _ := request.Attr("phase"); ph.Str != "request" {
		t.Fatalf("request phase = %q", ph.Str)
	}
	if ph, _ := reply.Attr("phase"); ph.Str != "reply" {
		t.Fatalf("reply phase = %q", ph.Str)
	}
	if res, _ := reply.Attr("result"); res.Str != "ok" {
		t.Fatalf("reply result = %q", res.Str)
	}
	if ph, _ := open.Attr("phase"); ph.Str != "hello" {
		t.Fatalf("open phase = %q", ph.Str)
	}
	if ph, _ := closing.Attr("phase"); ph.Str != "verdict" {
		t.Fatalf("close phase = %q", ph.Str)
	}
	if res, _ := closing.Attr("result"); res.Str != "pass" {
		t.Fatalf("close result = %q", res.Str)
	}
	e2e, ok := closing.NumAttr("e2e")
	if !ok || e2e != closing.Cycle-open.Cycle {
		t.Fatalf("e2e = %d (ok=%v), span = %d", e2e, ok, closing.Cycle-open.Cycle)
	}
	if e2e == 0 {
		t.Fatal("e2e latency is zero; quoting should charge cycles")
	}
	if rtt, ok := reply.NumAttr("rtt"); !ok || rtt != e2e {
		t.Fatalf("reply rtt = %d (ok=%v), want the session e2e %d", rtt, ok, e2e)
	}
}

// TestAttestToDenied: a failed appraisal verdict surfaces as ErrDenied
// on the device, wrapping the plane's reason.
func TestAttestToDenied(t *testing.T) {
	p, e := devicePlatform(t)
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{})
	c := oemClient(p, ClientOptions{})
	devConn, verConn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		defer devConn.Close()
		done <- srv.AttestTo(devConn, Hello{Device: "dev-0", Provider: "oem", TruncID: e.ID.TruncatedID()})
	}()
	h, err := c.AwaitHello(verConn)
	if err != nil {
		t.Fatalf("await hello: %v", err)
	}
	if _, err := c.Challenge(verConn, h.TruncID, 7); err != nil {
		t.Fatalf("challenge: %v", err)
	}
	if err := c.Verdict(verConn, false, "unknown measurement"); err != nil {
		t.Fatalf("verdict: %v", err)
	}
	verConn.Close()
	err = <-done
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("device side = %v, want ErrDenied", err)
	}
	if !strings.Contains(err.Error(), "unknown measurement") {
		t.Errorf("reason lost: %v", err)
	}
}

// TestAttestToRefused: a plane that refuses the hello surfaces as
// ErrRefused on the device, wrapping the plane's reason.
func TestAttestToRefused(t *testing.T) {
	p, e := devicePlatform(t)
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{})
	c := oemClient(p, ClientOptions{})
	devConn, verConn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		defer devConn.Close()
		done <- srv.AttestTo(devConn, Hello{Device: "dev-9", Provider: "oem", TruncID: e.ID.TruncatedID()})
	}()
	if _, err := c.AwaitHello(verConn); err != nil {
		t.Fatalf("await hello: %v", err)
	}
	if err := c.Refuse(verConn, "device quarantined"); err != nil {
		t.Fatalf("refuse: %v", err)
	}
	verConn.Close()
	err := <-done
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("device err = %v, want ErrRefused", err)
	}
	if !strings.Contains(err.Error(), "quarantined") {
		t.Errorf("refusal reason lost: %v", err)
	}
}

func TestMalformedFrames(t *testing.T) {
	p, _ := devicePlatform(t)
	devConn, verConn := net.Pipe()
	done := make(chan error, 1)
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{})
	go func() {
		defer devConn.Close()
		done <- srv.ServeOne(devConn)
	}()
	// Send a non-challenge frame.
	if err := writeFrame(verConn, MsgQuote, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(verConn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError {
		t.Errorf("reply type = %d, payload %q", typ, payload)
	}
	verConn.Close()
	if err := <-done; err == nil {
		t.Error("server accepted junk")
	}
}

func TestFrameLimits(t *testing.T) {
	if err := writeFrame(discard{}, MsgQuote, make([]byte, DefaultMaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized write = %v", err)
	}
	// Oversized length prefix on read.
	r := strings.NewReader("\xff\xff\xff\xff")
	if _, _, err := readFrame(r); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized read = %v", err)
	}
	// Zero-length frame.
	r = strings.NewReader("\x00\x00\x00\x00")
	if _, _, err := readFrame(r); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("zero frame = %v", err)
	}
}

// TestServerFrameLimit: a server reads a frame whose length prefix
// exceeds DefaultMaxFrame no further than the prefix and fails the
// exchange with ErrFrameTooLarge, answering nothing.
func TestServerFrameLimit(t *testing.T) {
	p, _ := devicePlatform(t)
	devConn, verConn := net.Pipe()
	done := make(chan error, 1)
	srv := NewServer(ComponentsAttestor{C: p.C}, ServerOptions{})
	go func() {
		defer devConn.Close()
		done <- srv.ServeOne(devConn)
	}()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], DefaultMaxFrame+1)
	if _, err := verConn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("server err = %v, want ErrFrameTooLarge", err)
	}
	if _, _, err := readFrame(verConn); !errors.Is(err, io.EOF) {
		t.Errorf("server answered an oversize frame: %v", err)
	}
	verConn.Close()
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestEmitAllocs pins the server's emit cost: a session event's attrs
// are copied into the server's arena, so it allocates nothing of its
// own; an attest event allocates only the trunc attr's hex string.
func TestEmitAllocs(t *testing.T) {
	emitted := 0
	sink := trace.SinkFunc(func(trace.Event) { emitted++ })
	s := NewServer(nil, ServerOptions{Obs: sink})
	h := Hello{Device: "dev-0042", Provider: "oem", Session: 7}
	ch := Challenge{Provider: "oem", TruncID: 0xdeadbeef}
	for _, c := range []struct {
		name string
		want float64
		emit func()
	}{
		{"session", 0, func() {
			s.emitSession(h, 100, trace.Str("phase", "verdict"), trace.Str("result", "pass"), trace.Num("e2e", 42))
		}},
		{"attest", 1, func() {
			s.emitAttest(ch, 100, "reply", trace.Str("result", "ok"), trace.Num("rtt", 9))
		}},
	} {
		if got := testing.AllocsPerRun(100, c.emit); got != c.want {
			t.Errorf("%s event allocates %v times, want %v", c.name, got, c.want)
		}
	}
	if emitted == 0 {
		t.Fatal("no events reached the sink")
	}
}
