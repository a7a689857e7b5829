package trusted

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/rtos"
)

// ISA-level tests of the trusted syscall ABI: small assembly programs
// exercise each SVC and report through the UART.

// uartOf returns the rig's UART.
func uartOf(t *testing.T, r *rig) *machine.UART {
	t.Helper()
	d, ok := r.m.Device(machine.PageUART)
	if !ok {
		t.Fatal("no uart")
	}
	return d.(*machine.UART)
}

func runRig(t *testing.T, r *rig, cycles uint64) {
	t.Helper()
	r.k.StartTick()
	if err := r.k.RunUntil(r.m.Cycles() + cycles); err != nil {
		t.Fatal(err)
	}
}

func TestSVCGetIDAndLocalAttest(t *testing.T) {
	r := newRig(t)
	im := mustImage(t, `
.task "self"
.entry main
.stack 192
.bss 28
.text
main:
    svc 19            ; get own id -> r0 status, r1 lo, r2 hi
    cmpi r0, 0
    bne bad
    svc 20            ; local attest of (r1,r2) -> r0 = 1 if loaded
    cmpi r0, 1
    bne bad
    ldi r1, 89        ; 'Y'
    svc 5
    svc 1
bad:
    ldi r1, 78        ; 'N'
    svc 5
    svc 1
`)
	r.loadTask(t, im, rtos.KindSecure, 3)
	runRig(t, r, 500_000)
	if got := uartOf(t, r).String(); got != "Y" {
		t.Errorf("output = %q, want Y", got)
	}
}

func TestSVCSealStoreLoadRoundTrip(t *testing.T) {
	r := newRig(t)
	im := mustImage(t, `
.task "sealer"
.entry main
.stack 192
.bss 28
.text
main:
    ldi r1, 3          ; slot
    ldi32 r2, 0xC0FFEE
    svc 21             ; seal store
    cmpi r0, 0
    bne bad
    ldi r1, 3
    svc 22             ; seal load -> r0 status, r2 word
    cmpi r0, 0
    bne bad
    ldi32 r3, 0xC0FFEE
    cmp r2, r3
    bne bad
    ldi r1, 89         ; 'Y'
    svc 5
    svc 1
bad:
    ldi r1, 78
    svc 5
    svc 1
`)
	r.loadTask(t, im, rtos.KindSecure, 3)
	runRig(t, r, 1_000_000)
	if got := uartOf(t, r).String(); got != "Y" {
		t.Errorf("output = %q, want Y", got)
	}
	if r.c.Storage.Slots() != 1 {
		t.Errorf("slots = %d", r.c.Storage.Slots())
	}
}

func TestSVCSealLoadEmptySlot(t *testing.T) {
	r := newRig(t)
	im := mustImage(t, `
.task "empty"
.entry main
.stack 192
.bss 28
.text
main:
    ldi r1, 9
    svc 22             ; load empty slot
    cmpi r0, 2         ; SealStatusEmpty
    bne bad
    ldi r1, 89
    svc 5
    svc 1
bad:
    ldi r1, 78
    svc 5
    svc 1
`)
	r.loadTask(t, im, rtos.KindSecure, 3)
	runRig(t, r, 500_000)
	if got := uartOf(t, r).String(); got != "Y" {
		t.Errorf("output = %q", got)
	}
}

func TestSVCGetMailbox(t *testing.T) {
	r := newRig(t)
	im := mustImage(t, `
.task "boxy"
.entry main
.stack 192
.bss 28
.text
main:
    svc 23             ; r0 = mailbox address
    cmpi r0, 0
    beq bad
    ld r2, [r0+0]      ; must be readable (own bss) and empty
    cmpi r2, 0
    bne bad
    ldi r1, 89
    svc 5
    svc 1
bad:
    ldi r1, 78
    svc 5
    svc 1
`)
	tcb := r.loadTask(t, im, rtos.KindSecure, 3)
	e, _ := r.c.RTM.LookupByTask(tcb.ID)
	wantBox, _ := MailboxAddr(e)
	runRig(t, r, 500_000)
	if got := uartOf(t, r).String(); got != "Y" {
		t.Errorf("output = %q", got)
	}
	if wantBox != e.Placement.BSSBase() {
		t.Errorf("mailbox at %#x, want bss base %#x", wantBox, e.Placement.BSSBase())
	}
}

func TestSVCGetMailboxUnmeasuredTask(t *testing.T) {
	// A normal (unmeasured) task is not in the registry: SVC 23 yields 0.
	r := newRig(t)
	im := mustImage(t, `
.task "unreg"
.entry main
.stack 192
.bss 28
.text
main:
    svc 23
    cmpi r0, 0
    beq good
    ldi r1, 78
    svc 5
    svc 1
good:
    ldi r1, 89
    svc 5
    svc 1
`)
	r.loadTask(t, im, rtos.KindNormal, 3)
	runRig(t, r, 500_000)
	if got := uartOf(t, r).String(); got != "Y" {
		t.Errorf("output = %q", got)
	}
}

func TestSVCSendBadLength(t *testing.T) {
	r := newRig(t)
	im := mustImage(t, `
.task "badlen"
.entry main
.stack 192
.bss 28
.text
main:
    svc 19             ; own id into r1,r2 (send to self)
    ldi r3, 16         ; > MaxPayloadLen
    svc 16
    cmpi r0, 3         ; IPCStatusBadLen
    bne bad
    ldi r1, 89
    svc 5
    svc 1
bad:
    ldi r1, 78
    svc 5
    svc 1
`)
	r.loadTask(t, im, rtos.KindSecure, 3)
	runRig(t, r, 500_000)
	if got := uartOf(t, r).String(); got != "Y" {
		t.Errorf("output = %q", got)
	}
}

func TestSVCSendToUnknownIdentity(t *testing.T) {
	r := newRig(t)
	im := mustImage(t, `
.task "lost"
.entry main
.stack 192
.bss 28
.text
main:
    ldi32 r1, 0xDEAD
    ldi r2, 0
    ldi r3, 4
    ldi r4, 1
    svc 16
    cmpi r0, 1         ; IPCStatusNoReceiver
    bne bad
    ldi r1, 89
    svc 5
    svc 1
bad:
    ldi r1, 78
    svc 5
    svc 1
`)
	r.loadTask(t, im, rtos.KindSecure, 3)
	runRig(t, r, 500_000)
	if got := uartOf(t, r).String(); got != "Y" {
		t.Errorf("output = %q", got)
	}
}

func TestTransferMailboxEmptySource(t *testing.T) {
	r := newRig(t)
	a := r.loadTask(t, mustImage(t, ".task \"ta\"\n.entry e\n.stack 128\n.bss 28\n.text\ne:\n jmp e\n"), rtos.KindSecure, 3)
	b := r.loadTask(t, mustImage(t, ".task \"tb\"\n.entry e\n.stack 128\n.bss 28\n.text\ne:\n nop\n jmp e\n"), rtos.KindSecure, 3)
	ea, _ := r.c.RTM.LookupByTask(a.ID)
	eb, _ := r.c.RTM.LookupByTask(b.ID)
	if err := r.c.Proxy.TransferMailbox(ea, eb); err != nil {
		t.Fatalf("empty transfer: %v", err)
	}
	// Destination stays empty.
	box, _ := MailboxAddr(eb)
	var flags uint32
	r.m.WithExecContext(IPCProxyBase, func() { flags, _ = r.m.Read32(box) })
	if flags != 0 {
		t.Error("empty transfer set destination flag")
	}
}

func TestMeasuredCounter(t *testing.T) {
	r := newRig(t)
	before := r.c.RTM.Measured()
	r.loadTask(t, mustImage(t, ".task \"mc\"\n.entry e\n.stack 128\n.bss 28\n.text\ne:\n jmp e\n"), rtos.KindSecure, 3)
	if r.c.RTM.Measured() != before+1 {
		t.Errorf("Measured() = %d, want %d", r.c.RTM.Measured(), before+1)
	}
}

func TestProviderQuotesDistinct(t *testing.T) {
	r := newRig(t)
	tcb := r.loadTask(t, mustImage(t, ".task \"pq\"\n.entry e\n.stack 128\n.bss 28\n.text\ne:\n jmp e\n"), rtos.KindSecure, 3)
	q1, err := r.c.Attest.QuoteTaskForProvider("p1", tcb.ID, 5)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := r.c.Attest.QuoteTaskForProvider("p2", tcb.ID, 5)
	if err != nil {
		t.Fatal(err)
	}
	if q1.MAC == q2.MAC {
		t.Error("provider keys not separated")
	}
	// Cached derivation returns the same key.
	q1b, _ := r.c.Attest.QuoteTaskForProvider("p1", tcb.ID, 5)
	if q1b.MAC != q1.MAC {
		t.Error("provider key cache inconsistent")
	}
	if _, err := r.c.Attest.QuoteTaskForProvider("p1", 999, 1); err == nil {
		t.Error("quoted unknown task")
	}
}

func TestIntMuxCounters(t *testing.T) {
	r := newRig(t)
	im := mustImage(t, ".task \"cnt\"\n.entry e\n.stack 128\n.bss 28\n.text\ne:\n jmp e\n")
	r.loadTask(t, im, rtos.KindSecure, 3)
	runRig(t, r, 10*rtos.DefaultTickPeriod)
	if r.c.Mux.saves == 0 || r.c.Mux.restores == 0 {
		t.Errorf("mux counters: saves=%d restores=%d", r.c.Mux.saves, r.c.Mux.restores)
	}
}
