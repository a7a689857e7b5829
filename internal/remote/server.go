package remote

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/trace"
)

// ServerOptions parameterizes the device side of the protocol. The zero
// value is ready: default deadline, no events. Frames are bounded by
// DefaultMaxFrame.
type ServerOptions struct {
	// Timeout bounds each exchange's I/O (0 = DefaultIOTimeout).
	Timeout time.Duration
	// Obs, when non-nil, receives every device-side event of a wire
	// exchange; the server is their only emitter. Each answered
	// challenge emits a request/reply pair (SubRemote / KindAttest)
	// around the quote, the reply carrying its result and rtt. A
	// device-initiated session is bracketed in SubRemote / KindSession
	// events: one phase=hello event when AttestTo opens it and one
	// closing event (phase=verdict/refused/error) stamped with the
	// device-cycle end-to-end latency. Both carry the session ordinal
	// from the Hello, forming the correlation key the fleet plane
	// echoes. Nil costs one pointer check per event.
	Obs trace.Sink
	// Cycles supplies the simulated cycle counter for Obs timestamps
	// (nil stamps zero). Reading the counter never advances it, so
	// observation keeps the zero-impact contract.
	Cycles func() uint64
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.Timeout == 0 {
		o.Timeout = DefaultIOTimeout
	}
	return o
}

// Server is the device side of the wire protocol: it owns an Attestor
// and answers verifier challenges, or initiates sessions toward a
// verifier plane with AttestTo. Safe for concurrent use across
// connections.
type Server struct {
	att Attestor
	opt ServerOptions

	mu    sync.Mutex  // guards attrs
	attrs trace.Arena // every emitted event's attrs
}

// NewServer builds a device-side server around att.
func NewServer(att Attestor, opt ServerOptions) *Server {
	return &Server{att: att, opt: opt.withDefaults()}
}

// ServeOne handles a single challenge/response exchange on conn under
// the server's I/O deadline.
func (s *Server) ServeOne(conn net.Conn) error {
	return withDeadline(conn, s.opt.Timeout, func() error { return s.serveExchange(conn) })
}

// serveExchange is one challenge/response exchange (no deadline
// handling; the callers wrap it).
func (s *Server) serveExchange(conn net.Conn) error {
	typ, payload, err := readFrame(conn)
	if err != nil {
		return err
	}
	if typ != MsgChallenge {
		writeFrame(conn, MsgError, []byte("expected challenge"))
		return fmt.Errorf("%w: type %d", ErrBadMessage, typ)
	}
	ch, err := unmarshalChallenge(payload)
	if err != nil {
		writeFrame(conn, MsgError, []byte("bad challenge"))
		return err
	}
	return s.answer(conn, ch)
}

// answer quotes the challenged task and writes the reply frame. With
// Obs wired it brackets the quote in a request/reply event pair
// (SubRemote / KindAttest, subject = provider), the wire view of the
// round-trip beside the trusted component's own SubAttest event; the
// reply carries the outcome and the round-trip time as an rtt
// attribute, so it stands alone in a truncated trace.
func (s *Server) answer(conn net.Conn, ch Challenge) error {
	start := s.now()
	s.emitAttest(ch, start, "request")
	q, err := s.att.QuoteByTruncID(ch.Provider, ch.TruncID, ch.Nonce)
	result := "ok"
	if err != nil {
		result = err.Error()
	}
	end := s.now()
	s.emitAttest(ch, end, "reply", trace.Str("result", result), trace.Num("rtt", end-start))
	if err != nil {
		writeFrame(conn, MsgError, []byte(err.Error()))
		return nil // the protocol handled it; not a server failure
	}
	return writeFrame(conn, MsgQuote, q.Marshal())
}

// Serve accepts connections on l and answers one challenge per
// connection until Accept fails (listener closed). A misbehaving
// connection — malformed frames, stalls past the deadline — is dropped
// and serving continues; one bad peer cannot take the attestation
// service down for everyone else.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.ServeOne(conn)
		conn.Close()
	}
}

// AttestTo runs a device-initiated session on conn: send the hello,
// answer the verifier plane's challenge, and wait for its verdict. A
// plane that refuses the hello (MsgError) surfaces as ErrRefused; a
// failed appraisal (MsgVerdict fail) as ErrDenied — both wrapping the
// plane's reason. Waiting for the verdict keeps the session synchronous
// end to end: when AttestTo returns, the plane has recorded the
// outcome, so the device's next session sees its up-to-date standing.
func (s *Server) AttestTo(conn net.Conn, h Hello) error {
	start := s.now()
	s.emitSession(h, start, trace.Str("phase", "hello"), trace.Str("provider", h.Provider))
	err := withDeadline(conn, s.opt.Timeout, func() error {
		payload, err := marshalHello(h)
		if err != nil {
			return err
		}
		if err := writeFrame(conn, MsgHello, payload); err != nil {
			return err
		}
		typ, resp, err := readFrame(conn)
		if err != nil {
			return err
		}
		switch typ {
		case MsgChallenge:
			ch, err := unmarshalChallenge(resp)
			if err != nil {
				writeFrame(conn, MsgError, []byte("bad challenge"))
				return err
			}
			if err := s.answer(conn, ch); err != nil {
				return err
			}
			return s.awaitVerdict(conn)
		case MsgError:
			return fmt.Errorf("%w: %s", ErrRefused, resp)
		default:
			return fmt.Errorf("%w: type %d", ErrBadMessage, typ)
		}
	})
	end := s.now()
	switch {
	case err == nil:
		s.emitSession(h, end, trace.Str("phase", "verdict"),
			trace.Str("result", "pass"), trace.Num("e2e", end-start))
	case errors.Is(err, ErrDenied):
		s.emitSession(h, end, trace.Str("phase", "verdict"),
			trace.Str("result", "fail"), trace.Num("e2e", end-start))
	case errors.Is(err, ErrRefused):
		s.emitSession(h, end, trace.Str("phase", "refused"),
			trace.Num("e2e", end-start))
	default:
		s.emitSession(h, end, trace.Str("phase", "error"),
			trace.Num("e2e", end-start))
	}
	return err
}

// now samples the simulated cycle counter for session events (0 when
// the server has no cycle source).
func (s *Server) now() uint64 {
	if s.opt.Cycles == nil {
		return 0
	}
	return s.opt.Cycles()
}

// emitAttest emits one quote round-trip event when Obs is wired.
func (s *Server) emitAttest(ch Challenge, cycle uint64, phase string, attrs ...trace.Attr) {
	if s.opt.Obs == nil {
		return
	}
	var buf [4]trace.Attr
	all := append(append(buf[:0], trace.Str("phase", phase), trace.Hex("trunc", ch.TruncID)), attrs...)
	s.emit(trace.Event{Cycle: cycle, Sub: trace.SubRemote, Kind: trace.KindAttest, Subject: ch.Provider}, all)
}

// emitSession emits one session-lifecycle event when Obs is wired.
func (s *Server) emitSession(h Hello, cycle uint64, attrs ...trace.Attr) {
	if s.opt.Obs == nil {
		return
	}
	var buf [4]trace.Attr
	all := append(append(buf[:0], trace.Num("session", h.Session)), attrs...)
	s.emit(trace.Event{Cycle: cycle, Sub: trace.SubRemote, Kind: trace.KindSession, Subject: h.Device}, all)
}

// emit sends e to Obs with attrs copied into the server's arena, so
// the callers' attrs stay on their stacks.
func (s *Server) emit(e trace.Event, attrs []trace.Attr) {
	s.mu.Lock()
	e.Attrs = s.attrs.Copy(attrs...)
	s.mu.Unlock()
	s.opt.Obs.Emit(e)
}

// awaitVerdict reads the session-closing verdict frame.
func (s *Server) awaitVerdict(conn net.Conn) error {
	typ, v, err := readFrame(conn)
	if err != nil {
		return err
	}
	if typ != MsgVerdict || len(v) < 1 {
		return fmt.Errorf("%w: expected verdict, got type %d", ErrBadMessage, typ)
	}
	if v[0] == 1 {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrDenied, v[1:])
}
