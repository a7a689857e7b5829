package fleet

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/remote"
)

// memnet: an in-memory network so a thousand simulated devices can dial
// the verifier plane without consuming host sockets. Dial hands the two
// ends of a memPipe to the dialer and the next Accept caller.
//
// A memPipe behaves like a loopback socket, not like net.Pipe's
// rendezvous. Each direction is a byte buffer under a mutex: Write
// appends and returns without waiting for the reader, and Read returns
// what is buffered or waits for more. After the peer closes, Read drains
// the buffered bytes and then returns io.EOF, so a verdict written just
// before a Close still arrives. Each direction's buffer starts inside
// the pipe's own allocation and is reused once drained, so a Write
// allocates only when the unread bytes outgrow it. A direction holds at
// most memConnCap unread bytes; a Write past that fails with
// ErrConnFull instead of blocking.
//
// Deadlines cost nothing until a Read has to wait. Each direction keeps
// one read timer: the first Read that waits under a deadline arms it,
// and it moves only when a nearer deadline needs it. A wait whose
// deadline the armed timer already covers reads no clock and touches no
// timer, so it can park briefly on a timer that is due but whose
// callback has not run yet. When the timer fires it re-arms only while
// a Read still waits and the deadline has not passed (it was extended);
// if the deadline has passed, it wakes the waiting Reads, which return
// os.ErrDeadlineExceeded. Close stops it.

// memConnCap bounds one direction's unread bytes: sixteen frames of the
// remote package's default limit.
const memConnCap = 16 * remote.DefaultMaxFrame

// memBufInline is the capacity each direction starts with, inside the
// pipe's own allocation. The largest frame of a fleet session, a 53-byte
// quote, fits, so a session's Writes allocate nothing, and the pipe
// stays within a 512-byte allocation.
const memBufInline = 56

var (
	// ErrListenerClosed is returned by Dial and Accept after Close.
	ErrListenerClosed = errors.New("fleet: listener closed")
	// ErrConnFull is returned by a Write that would leave more than
	// memConnCap bytes unread on an in-memory conn.
	ErrConnFull = errors.New("fleet: in-memory conn buffer full")
)

// memBuf is one direction of a memPipe. Its deadlines belong to the end
// that reads it (readDL) and the end that writes it (writeDL).
type memBuf struct {
	mu      sync.Mutex
	cond    sync.Cond // L is &mu; broadcast on every state change
	buf     []byte    // buf[off:] is written, not yet read
	off     int
	waiting int32 // Reads parked in cond.Wait
	rclosed bool  // the reading end closed
	wclosed bool  // the writing end closed
	readDL  time.Time
	writeDL time.Time
	timer   *time.Timer // the read timer, created by the first wait under a deadline
	timerAt time.Time   // when the armed timer fires; zero when it is not armed
}

// armTimer makes the read timer fire at dl, d from now.
func (b *memBuf) armTimer(dl time.Time, d time.Duration) {
	b.timerAt = dl
	if b.timer == nil {
		b.timer = time.AfterFunc(d, b.fire)
		return
	}
	b.timer.Reset(d)
}

// stopTimer disarms the read timer.
func (b *memBuf) stopTimer() {
	if b.timer != nil {
		b.timer.Stop()
	}
	b.timerAt = time.Time{}
}

// fire is the read timer's callback.
func (b *memBuf) fire() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.timerAt.IsZero() {
		return // Close stopped the timer while this run waited for the lock
	}
	b.timerAt = time.Time{}
	if b.waiting == 0 || b.readDL.IsZero() {
		return
	}
	// Deadlines are host wall-clock time. //tytan:allow hosttime
	if d := b.readDL.Sub(time.Now()); d > 0 {
		b.armTimer(b.readDL, d) // the deadline was extended
		return
	}
	b.cond.Broadcast()
}

// memConn is one end of a memPipe: it reads rx and writes tx.
type memConn struct {
	rx, tx *memBuf
}

// memPipe returns the two ends of a buffered in-memory connection.
func memPipe() (net.Conn, net.Conn) {
	p := new(struct {
		ab, ba     memBuf
		a, b       memConn
		abIn, baIn [memBufInline]byte
	})
	p.ab.cond.L = &p.ab.mu
	p.ba.cond.L = &p.ba.mu
	p.ab.buf = p.abIn[:0]
	p.ba.buf = p.baIn[:0]
	p.a = memConn{rx: &p.ba, tx: &p.ab}
	p.b = memConn{rx: &p.ab, tx: &p.ba}
	return &p.a, &p.b
}

// Read implements net.Conn.
func (c *memConn) Read(p []byte) (int, error) {
	b := c.rx
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		switch {
		case b.rclosed:
			return 0, io.ErrClosedPipe
		case b.off < len(b.buf):
			n := copy(p, b.buf[b.off:])
			b.off += n
			if b.off == len(b.buf) {
				b.buf, b.off = b.buf[:0], 0
			}
			return n, nil
		case b.wclosed:
			return 0, io.EOF
		}
		// Only a deadline the armed timer does not cover needs the clock.
		if dl := b.readDL; !dl.IsZero() && (b.timerAt.IsZero() || b.timerAt.After(dl)) {
			// Deadlines are host wall-clock time. //tytan:allow hosttime
			d := dl.Sub(time.Now())
			if d <= 0 {
				return 0, os.ErrDeadlineExceeded
			}
			b.armTimer(dl, d)
		}
		b.waiting++
		b.cond.Wait()
		b.waiting--
	}
}

// Write implements net.Conn. It never blocks.
func (c *memConn) Write(p []byte) (int, error) {
	b := c.tx
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.wclosed, b.rclosed:
		return 0, io.ErrClosedPipe
	case !b.writeDL.IsZero() && !time.Now().Before(b.writeDL): //tytan:allow hosttime
		return 0, os.ErrDeadlineExceeded
	case len(b.buf)-b.off+len(p) > memConnCap:
		return 0, ErrConnFull
	}
	if b.off > 0 && len(b.buf)+len(p) > cap(b.buf) {
		// Move the unread bytes to the front rather than grow past them.
		b.buf, b.off = b.buf[:copy(b.buf, b.buf[b.off:])], 0
	}
	b.buf = append(b.buf, p...)
	b.cond.Broadcast()
	return len(p), nil
}

// Close implements net.Conn: local Reads and Writes fail from now on,
// and the peer drains what this end wrote before it sees io.EOF. No
// Read waits on either direction again, so both read timers stop.
func (c *memConn) Close() error {
	c.rx.mu.Lock()
	c.rx.rclosed = true
	c.rx.stopTimer()
	c.rx.cond.Broadcast()
	c.rx.mu.Unlock()
	c.tx.mu.Lock()
	c.tx.wclosed = true
	c.tx.stopTimer()
	c.tx.cond.Broadcast()
	c.tx.mu.Unlock()
	return nil
}

// SetDeadline implements net.Conn.
func (c *memConn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn. It wakes a waiting Read, which
// moves the read timer if the new deadline is nearer than it.
func (c *memConn) SetReadDeadline(t time.Time) error {
	c.rx.mu.Lock()
	c.rx.readDL = t
	c.rx.cond.Broadcast()
	c.rx.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *memConn) SetWriteDeadline(t time.Time) error {
	c.tx.mu.Lock()
	c.tx.writeDL = t
	c.tx.mu.Unlock()
	return nil
}

// LocalAddr implements net.Conn.
func (c *memConn) LocalAddr() net.Addr { return memAddr{} }

// RemoteAddr implements net.Conn.
func (c *memConn) RemoteAddr() net.Addr { return memAddr{} }

// memListener is an in-process listener. The zero value is not ready;
// use newMemListener.
type memListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func newMemListener() *memListener {
	return &memListener{
		conns: make(chan net.Conn),
		done:  make(chan struct{}),
	}
}

// Dial connects a new in-memory conn to the next Accept caller.
func (l *memListener) Dial() (net.Conn, error) {
	client, server := memPipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, ErrListenerClosed
	}
}

// Accept implements net.Listener.
func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, ErrListenerClosed
	}
}

// Close implements net.Listener. Safe to call more than once.
func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// memAddr is the listener's synthetic address.
type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem:fleet" }

// Addr implements net.Listener.
func (l *memListener) Addr() net.Addr { return memAddr{} }
