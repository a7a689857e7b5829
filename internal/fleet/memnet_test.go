package fleet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/trusted"
)

// waitReaders waits until n goroutines are inside memConn.Read, so a
// test can act on a Read that is (about to be) parked.
func waitReaders(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for i := 0; i < 1000; i++ {
		if bytes.Count(buf[:runtime.Stack(buf, true)], []byte("fleet.(*memConn).Read(")) >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("fewer than %d goroutines reached memConn.Read", n)
}

// waitParked waits until n Reads are parked on c's read side, so a
// test can act on Reads that wait (and, under a deadline, have armed
// the read timer).
func waitParked(t *testing.T, c net.Conn, n int32) {
	t.Helper()
	rx := c.(*memConn).rx
	for i := 0; i < 1000; i++ {
		rx.mu.Lock()
		parked := rx.waiting
		rx.mu.Unlock()
		if parked >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("fewer than %d Reads parked", n)
}

// timerArmed reports whether b's read timer is armed or still pending.
// It leaves the timer stopped.
func timerArmed(b *memBuf) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.timerAt.IsZero() || (b.timer != nil && b.timer.Stop())
}

// readResult is one Read's outcome, handed back from a reading goroutine.
type readResult struct {
	data []byte
	err  error
}

// goRead starts one Read of up to size bytes on c.
func goRead(c net.Conn, size int) <-chan readResult {
	out := make(chan readResult, 1)
	go func() {
		buf := make([]byte, size)
		n, err := c.Read(buf)
		out <- readResult{buf[:n], err}
	}()
	return out
}

// TestMemPipe checks memPipe's socket-like semantics, one subtest per
// property the fleet farm relies on.
func TestMemPipe(t *testing.T) {
	t.Run("ordered-short-reads", func(t *testing.T) {
		a, b := memPipe()
		defer a.Close()
		defer b.Close()
		msg := []byte("one frame, read back in three-byte pieces")
		if n, err := a.Write(msg); n != len(msg) || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
		var got []byte
		buf := make([]byte, 3)
		for len(got) < len(msg) {
			n, err := b.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("read %q, want %q", got, msg)
		}
	})

	t.Run("peer-close-drains-then-eof", func(t *testing.T) {
		a, b := memPipe()
		defer b.Close()
		a.Write([]byte("verdict"))
		a.Close()
		got, err := io.ReadAll(b)
		if err != nil || string(got) != "verdict" {
			t.Fatalf("ReadAll after peer close = %q, %v; want \"verdict\", nil", got, err)
		}
		if _, err := b.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("Read after drain = %v, want io.EOF", err)
		}
	})

	t.Run("local-close", func(t *testing.T) {
		a, b := memPipe()
		defer a.Close()
		blocked := goRead(b, 8)
		waitReaders(t, 1)
		b.Close()
		if r := <-blocked; !errors.Is(r.err, io.ErrClosedPipe) {
			t.Fatalf("blocked Read after local Close = %v, want io.ErrClosedPipe", r.err)
		}
		if _, err := b.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("Read after local Close = %v, want io.ErrClosedPipe", err)
		}
		if _, err := b.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("Write after local Close = %v, want io.ErrClosedPipe", err)
		}
	})

	t.Run("write-to-closed-peer", func(t *testing.T) {
		a, b := memPipe()
		defer a.Close()
		b.Close()
		if n, err := a.Write([]byte("hello")); n != 0 || err == nil {
			t.Fatalf("Write to a closed peer = %d, %v; want an error", n, err)
		}
	})

	t.Run("past-deadline-is-timeout", func(t *testing.T) {
		a, b := memPipe()
		defer a.Close()
		defer b.Close()
		past := time.Now().Add(-time.Second)
		b.SetReadDeadline(past)
		_, err := b.Read(make([]byte, 1))
		var ne net.Error
		if !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("Read past its deadline = %v, want a timeout os.ErrDeadlineExceeded", err)
		}
		a.SetWriteDeadline(past)
		if _, err := a.Write([]byte("x")); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Write past its deadline = %v, want os.ErrDeadlineExceeded", err)
		}
		// Through the remote package's per-exchange deadline: a 1 ns
		// timeout has expired by the time AwaitHello's read waits.
		client := remote.NewClient(trusted.NewVerifier(core.DevKey, "oem"), "oem", remote.ClientOptions{Timeout: time.Nanosecond})
		if _, err := client.AwaitHello(b); !errors.Is(err, remote.ErrTimeout) {
			t.Fatalf("AwaitHello on a silent memPipe = %v, want remote.ErrTimeout", err)
		}
	})

	t.Run("deadline-wakes-read", func(t *testing.T) {
		a, b := memPipe()
		defer a.Close()
		defer b.Close()
		blocked := goRead(b, 8)
		waitReaders(t, 1)
		b.SetReadDeadline(time.Now().Add(-time.Second))
		if r := <-blocked; !errors.Is(r.err, os.ErrDeadlineExceeded) {
			t.Fatalf("Read woken by a past deadline = %v, want os.ErrDeadlineExceeded", r.err)
		}
		b.SetReadDeadline(time.Time{})
		blocked = goRead(b, 8)
		waitReaders(t, 1)
		a.Write([]byte("late"))
		if r := <-blocked; r.err != nil || string(r.data) != "late" {
			t.Fatalf("Read after clearing the deadline = %q, %v; want \"late\", nil", r.data, r.err)
		}
	})

	t.Run("write-cap", func(t *testing.T) {
		a, b := memPipe()
		defer a.Close()
		defer b.Close()
		fill := bytes.Repeat([]byte{0xA5}, memConnCap-1)
		if _, err := a.Write(fill); err != nil {
			t.Fatalf("Write up to the cap = %v", err)
		}
		if n, err := a.Write([]byte{1, 2}); n != 0 || !errors.Is(err, ErrConnFull) {
			t.Fatalf("Write past the cap = %d, %v; want 0, ErrConnFull", n, err)
		}
		if _, err := a.Write([]byte{0xA5}); err != nil {
			t.Fatalf("Write to exactly the cap = %v", err)
		}
		a.Close()
		got, err := io.ReadAll(b)
		if err != nil || len(got) != memConnCap || !bytes.Equal(got, bytes.Repeat([]byte{0xA5}, memConnCap)) {
			t.Fatalf("ReadAll after a refused Write = %d bytes, %v; want the %d buffered bytes", len(got), err, memConnCap)
		}
	})

	t.Run("concurrent-readers", func(t *testing.T) {
		a, b := memPipe()
		defer b.Close()
		const rounds, chunk = 64, 1000
		counts := make([][256]int, 2)
		var wg sync.WaitGroup
		for r := range counts {
			wg.Add(1)
			go func(seen *[256]int) {
				defer wg.Done()
				buf := make([]byte, 97)
				for {
					n, err := b.Read(buf)
					for _, c := range buf[:n] {
						seen[c]++
					}
					if err != nil {
						if err != io.EOF {
							t.Errorf("reader: %v", err)
						}
						return
					}
				}
			}(&counts[r])
		}
		// Every byte value is written rounds*chunk/256 times.
		msg := make([]byte, chunk)
		sent := 0
		for i := 0; i < rounds; i++ {
			for j := range msg {
				msg[j] = byte(sent + j)
			}
			for {
				_, err := a.Write(msg)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrConnFull) {
					t.Fatal(err)
				}
				runtime.Gosched()
			}
			sent += chunk
		}
		a.Close()
		wg.Wait()
		for v := 0; v < 256; v++ {
			want := sent / 256
			if v < sent%256 {
				want++
			}
			if got := counts[0][v] + counts[1][v]; got != want {
				t.Fatalf("byte %#x read %d times, want %d", v, got, want)
			}
		}
	})

	t.Run("deadline-moved-earlier", func(t *testing.T) {
		a, b := memPipe()
		defer a.Close()
		defer b.Close()
		b.SetReadDeadline(time.Now().Add(time.Hour))
		blocked := goRead(b, 8)
		waitParked(t, b, 1)
		dl := time.Now().Add(20 * time.Millisecond)
		b.SetReadDeadline(dl)
		select {
		case r := <-blocked:
			if !errors.Is(r.err, os.ErrDeadlineExceeded) {
				t.Fatalf("Read under a deadline moved earlier = %q, %v; want os.ErrDeadlineExceeded", r.data, r.err)
			}
			if early := dl.Sub(time.Now()); early > 0 {
				t.Fatalf("Read ended %v before its deadline", early)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Read still waits 10 s after its deadline was moved 20 ms ahead")
		}
	})

	t.Run("deadline-extended", func(t *testing.T) {
		a, b := memPipe()
		defer a.Close()
		defer b.Close()
		first := time.Now().Add(20 * time.Millisecond)
		b.SetReadDeadline(first)
		blocked := goRead(b, 8)
		waitParked(t, b, 1)
		b.SetReadDeadline(time.Now().Add(time.Hour))
		time.Sleep(time.Until(first) + 30*time.Millisecond)
		select {
		case r := <-blocked:
			t.Fatalf("Read ended at its first deadline after it was extended: %q, %v", r.data, r.err)
		default:
		}
		a.Write([]byte("late"))
		if r := <-blocked; r.err != nil || string(r.data) != "late" {
			t.Fatalf("Read under an extended deadline = %q, %v; want \"late\", nil", r.data, r.err)
		}

		// With nothing written, the Read ends at the extended deadline:
		// the timer that fired at the first one re-armed for it.
		first = time.Now().Add(20 * time.Millisecond)
		b.SetReadDeadline(first)
		blocked = goRead(b, 8)
		waitParked(t, b, 1)
		second := first.Add(60 * time.Millisecond)
		b.SetReadDeadline(second)
		select {
		case r := <-blocked:
			if !errors.Is(r.err, os.ErrDeadlineExceeded) {
				t.Fatalf("Read under an extended deadline = %q, %v; want os.ErrDeadlineExceeded", r.data, r.err)
			}
			if early := second.Sub(time.Now()); early > 0 {
				t.Fatalf("Read ended %v before its extended deadline", early)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Read still waits 10 s after its extended deadline")
		}
	})

	t.Run("close-stops-timer", func(t *testing.T) {
		a, b := memPipe()
		defer a.Close()
		rx := b.(*memConn).rx
		b.SetReadDeadline(time.Now().Add(time.Hour))
		blocked := goRead(b, 8)
		waitParked(t, b, 1)
		b.Close()
		if r := <-blocked; !errors.Is(r.err, io.ErrClosedPipe) {
			t.Fatalf("Read under a deadline after Close = %v, want io.ErrClosedPipe", r.err)
		}
		// A callback run that was already due when Close stopped the
		// timer, and that takes the lock before the Reads Close woke
		// have left, must not re-arm it; nor may a Read after Close.
		rx.mu.Lock()
		rx.waiting++
		rx.mu.Unlock()
		rx.fire()
		rx.mu.Lock()
		rx.waiting--
		rx.mu.Unlock()
		if _, err := b.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("Read after Close = %v, want io.ErrClosedPipe", err)
		}
		if timerArmed(rx) {
			t.Fatal("read timer armed after Close")
		}

		// The peer's Close stops it too: no Read waits on a direction
		// whose writer has closed.
		a, b = memPipe()
		defer b.Close()
		b.SetReadDeadline(time.Now().Add(time.Hour))
		blocked = goRead(b, 8)
		waitParked(t, b, 1)
		a.Close()
		if r := <-blocked; r.err != io.EOF {
			t.Fatalf("Read under a deadline after the peer's Close = %v, want io.EOF", r.err)
		}
		if timerArmed(b.(*memConn).rx) {
			t.Fatal("read timer armed after the peer's Close")
		}
	})

	t.Run("concurrent-deadlines-close", func(t *testing.T) {
		a, b := memPipe()
		const workers = 4
		var readers, others sync.WaitGroup
		for g := 0; g < workers; g++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				buf := make([]byte, 8)
				for {
					_, err := b.Read(buf)
					if errors.Is(err, io.ErrClosedPipe) {
						return
					}
					// io.EOF: a closed before b.
					if err != nil && err != io.EOF && !errors.Is(err, os.ErrDeadlineExceeded) {
						t.Errorf("Read = %v", err)
						return
					}
				}
			}()
			others.Add(1)
			go func(g int) {
				defer others.Done()
				for i := 0; i < 50; i++ {
					// A mix of no deadline, past, near and far deadlines.
					var dl time.Time
					if k := (i + g) % 4; k > 0 {
						dl = time.Now().Add(time.Duration(k-2) * time.Millisecond)
					}
					b.SetReadDeadline(dl)
					if i%8 == g {
						a.Write([]byte{byte(i)})
					}
					time.Sleep(100 * time.Microsecond)
				}
			}(g)
		}
		others.Wait()
		for _, c := range []net.Conn{a, b, b} {
			others.Add(1)
			go func(c net.Conn) {
				defer others.Done()
				c.Close()
			}(c)
		}
		done := make(chan struct{})
		go func() {
			readers.Wait()
			others.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Reads still wait 10 s after Close")
		}
		if timerArmed(a.(*memConn).rx) || timerArmed(b.(*memConn).rx) {
			t.Fatal("read timer armed after Close")
		}
	})
}

// FuzzMemConn drives one memPipe with fuzz-chosen writes, reads and an
// optional close, against a model of the unread bytes. Each input byte
// is one op, chosen by its low two bits:
//
//	0: write op>>2 bytes            1: write (op>>2)*2048 bytes (may pass the cap)
//	2: read up to op>>2+1 bytes      3: close the writer (op&4 == 0) or the reader
//
// The reader must see exactly the accepted writes, in order, and then
// io.EOF (writer closed) or io.ErrClosedPipe (reader closed). Every
// read either has bytes buffered or a close or an expired deadline to
// return on, so nothing waits. As no Read waits, none arms the read
// timer, and an expired deadline fails on the Read's own clock check
// instead of parking until a due timer's callback runs. The seed corpus is checked in under
// testdata/fuzz/FuzzMemConn.
func FuzzMemConn(f *testing.F) {
	// pattern[i] == byte(i): a write starting at byte value v is
	// pattern[v:v+size], so no op allocates.
	pattern := make([]byte, 256+63*2048)
	for i := range pattern {
		pattern[i] = byte(i)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		w, r := memPipe()
		defer w.Close()
		defer r.Close()
		var next byte     // next byte value to write
		var unread []byte // the model: accepted, not yet read
		buf := make([]byte, 509)
		wclosed, rclosed := false, false
		for _, op := range ops {
			switch op & 3 {
			case 0, 1:
				size := int(op >> 2)
				if op&3 == 1 {
					size *= 2048
				}
				msg := pattern[next : int(next)+size]
				n, err := w.Write(msg)
				switch {
				case wclosed || rclosed:
					if err == nil {
						t.Fatalf("Write after close succeeded")
					}
				case len(unread)+size > memConnCap:
					if n != 0 || !errors.Is(err, ErrConnFull) {
						t.Fatalf("Write of %d over %d unread = %d, %v; want ErrConnFull", size, len(unread), n, err)
					}
				default:
					if n != size || err != nil {
						t.Fatalf("Write of %d = %d, %v", size, n, err)
					}
					unread = append(unread, msg...)
					next += byte(size)
				}
			case 2:
				if !wclosed && !rclosed && len(unread) == 0 {
					// Nothing to return: only an expired deadline ends it.
					r.SetReadDeadline(time.Now().Add(-time.Second))
					if _, err := r.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
						t.Fatalf("Read on an empty pipe past its deadline = %v", err)
					}
					r.SetReadDeadline(time.Time{})
					continue
				}
				n, err := r.Read(buf[:int(op>>2)+1])
				unread = checkRead(t, buf[:n], err, unread, rclosed)
			case 3:
				if op&4 == 0 {
					w.Close()
					wclosed = true
				} else {
					r.Close()
					rclosed = true
				}
			}
		}
		w.Close()
		for {
			n, err := r.Read(buf)
			unread = checkRead(t, buf[:n], err, unread, rclosed)
			if err != nil {
				return
			}
		}
	})
}

// checkRead checks one Read against the model's unread bytes and
// returns what is left unread.
func checkRead(t *testing.T, got []byte, err error, unread []byte, rclosed bool) []byte {
	t.Helper()
	switch {
	case rclosed:
		if len(got) != 0 || !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("Read after the reader closed = %d bytes, %v; want io.ErrClosedPipe", len(got), err)
		}
	case len(unread) == 0:
		if len(got) != 0 || err != io.EOF {
			t.Fatalf("Read after the drained writer closed = %d bytes, %v; want io.EOF", len(got), err)
		}
	case err != nil || len(got) == 0 || !bytes.Equal(got, unread[:len(got)]):
		t.Fatalf("Read = %x, %v; want a prefix of %x", got, err, unread[:min(len(unread), 16)])
	}
	return unread[len(got):]
}
