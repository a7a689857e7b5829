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
// before a Close still arrives. Deadlines cost nothing until a Read has
// to wait: only then is a timer armed, and it is stopped before Read
// returns. A direction holds at most memConnCap unread bytes; a Write
// past that fails with ErrConnFull instead of blocking.

// memConnCap bounds one direction's unread bytes: sixteen frames of the
// remote package's default limit.
const memConnCap = 16 * remote.DefaultMaxFrame

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
	data    []byte    // written, not yet read
	rclosed bool      // the reading end closed
	wclosed bool      // the writing end closed
	readDL  time.Time
	writeDL time.Time
}

// broadcast wakes every Read waiting on b.
func (b *memBuf) broadcast() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// memConn is one end of a memPipe: it reads rx and writes tx.
type memConn struct {
	rx, tx *memBuf
}

// memPipe returns the two ends of a buffered in-memory connection.
func memPipe() (net.Conn, net.Conn) {
	p := new(struct {
		ab, ba memBuf
		a, b   memConn
	})
	p.ab.cond.L = &p.ab.mu
	p.ba.cond.L = &p.ba.mu
	p.a = memConn{rx: &p.ba, tx: &p.ab}
	p.b = memConn{rx: &p.ab, tx: &p.ba}
	return &p.a, &p.b
}

// Read implements net.Conn.
func (c *memConn) Read(p []byte) (int, error) {
	b := c.rx
	b.mu.Lock()
	defer b.mu.Unlock()
	// A timer exists only while this Read waits under a deadline; it is
	// re-armed on each wait and stopped before Read returns.
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		switch {
		case b.rclosed:
			return 0, io.ErrClosedPipe
		case len(b.data) > 0:
			n := copy(p, b.data)
			b.data = b.data[n:]
			return n, nil
		case b.wclosed:
			return 0, io.EOF
		}
		if dl := b.readDL; !dl.IsZero() {
			// Deadlines are host wall-clock time. //tytan:allow hosttime
			d := dl.Sub(time.Now())
			if d <= 0 {
				return 0, os.ErrDeadlineExceeded
			}
			if timer != nil {
				timer.Stop()
			}
			timer = time.AfterFunc(d, b.broadcast)
		}
		b.cond.Wait()
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
	case len(b.data)+len(p) > memConnCap:
		return 0, ErrConnFull
	}
	b.data = append(b.data, p...)
	b.cond.Broadcast()
	return len(p), nil
}

// Close implements net.Conn: local Reads and Writes fail from now on,
// and the peer drains what this end wrote before it sees io.EOF.
func (c *memConn) Close() error {
	c.rx.mu.Lock()
	c.rx.rclosed = true
	c.rx.cond.Broadcast()
	c.rx.mu.Unlock()
	c.tx.mu.Lock()
	c.tx.wclosed = true
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
// re-arms its timer for the new deadline.
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
