package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/eampu"
	"repro/internal/machine"
	"repro/internal/rtos"
	"repro/internal/telf"
	"repro/internal/trusted"
)

// Adversarial tests: each one plays a §5 attack — a malicious task or
// compromised component trying to break isolation, availability or
// authenticity — and asserts TyTAN's promised outcome: the attack fails
// and nobody else is affected.

// spyTask tries to read a victim's memory at an address patched into
// its data section.
const spyTask = `
.task "spy"
.entry main
.stack 128
.bss 28
.text
main:
    ldi32 r1, target
    ld r1, [r1+0]     ; victim address
    ld r0, [r1+0]     ; the forbidden read
    ldi r1, 88        ; 'X' — only printed if the read succeeded
    svc 5
    svc 1
.data
target:
    .word 0
`

const victimTask = `
.task "victim"
.entry main
.stack 128
.bss 28
.text
main:
    ldi32 r1, secret
    ldi r0, 30000
    svc 2
    jmp main
.data
secret:
    .word 0x5EC12E7
`

// itoaBytes renders a name as .byte operands so each generated image
// has distinct *measured* content (the TELF name field is metadata and
// deliberately not part of the identity).
func itoaBytes(name string) string {
	out := ""
	for i, c := range []byte(name) {
		if i > 0 {
			out += ", "
		}
		out += itoa(int(c))
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func patchWord(im []byte, v uint32) {
	im[0] = byte(v)
	im[1] = byte(v >> 8)
	im[2] = byte(v >> 16)
	im[3] = byte(v >> 24)
}

func TestAttackSpyReadsSecureTask(t *testing.T) {
	p := newTyTAN(t)
	victim, _, err := p.LoadTaskSync(mustImage(t, victimTask), Secure, 4)
	if err != nil {
		t.Fatal(err)
	}
	spyIm := mustImage(t, spyTask)
	patchWord(spyIm.Data, victim.Placement.Base)
	spy, _, err := p.LoadTaskSync(spyIm, Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(10 * DefaultTickPeriod); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(p.Output(), "X") {
		t.Fatal("spy read the victim's memory")
	}
	if _, ok := p.K.Task(spy.ID); ok {
		t.Error("spy survived its violation")
	}
	if _, ok := p.K.Task(victim.ID); !ok {
		t.Error("victim was collateral damage")
	}
}

// jmpTask jumps into the middle of a victim task (code-reuse attempt).
const jmpTask = `
.task "rop"
.entry main
.stack 128
.bss 28
.text
main:
    ldi32 r1, target
    ld r1, [r1+0]
    jr r1             ; jump past the victim's entry point
    svc 1
.data
target:
    .word 0
`

func TestAttackCodeReuseMidRegionJump(t *testing.T) {
	p := newTyTAN(t)
	victim, _, err := p.LoadTaskSync(mustImage(t, victimTask), Secure, 4)
	if err != nil {
		t.Fatal(err)
	}
	ropIm := mustImage(t, jmpTask)
	patchWord(ropIm.Data, victim.EntryAddr+8) // mid-body gadget address
	rop, _, err := p.LoadTaskSync(ropIm, Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(10 * DefaultTickPeriod); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.K.Task(rop.ID); ok {
		t.Error("code-reuse task survived the entry violation")
	}
	if _, ok := p.K.Task(victim.ID); !ok {
		t.Error("victim killed by someone else's violation")
	}
}

// idtTask tries to install its own interrupt handler by writing the IDT.
const idtTask = `
.task "idt-writer"
.entry main
.stack 128
.bss 28
.text
main:
    ldi32 r1, 0x1000   ; IDT base
    ldi32 r2, 0x41414141
    st [r1+0], r2      ; overwrite vector 0
    ldi r1, 88
    svc 5
    svc 1
`

func TestAttackIDTOverwrite(t *testing.T) {
	p := newTyTAN(t)
	if _, _, err := p.LoadTaskSync(mustImage(t, idtTask), Secure, 3); err != nil {
		t.Fatal(err)
	}
	handlerBefore := p.M.IDTHandler(machine.IRQTimer)
	if err := p.Run(10 * DefaultTickPeriod); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(p.Output(), "X") {
		t.Fatal("task survived writing the IDT")
	}
	if got := p.M.IDTHandler(machine.IRQTimer); got != handlerBefore {
		t.Fatalf("IDT modified: %#x -> %#x", handlerBefore, got)
	}
}

// keyTask tries to read the platform key over MMIO.
const keyTask = `
.task "key-thief"
.entry main
.stack 128
.bss 28
.text
main:
    ldi32 r1, 0xF0000400   ; key store
    ld r0, [r1+0]
    ldi r1, 88
    svc 5
    svc 1
`

func TestAttackPlatformKeyRead(t *testing.T) {
	p := newTyTAN(t)
	if _, _, err := p.LoadTaskSync(mustImage(t, keyTask), Secure, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(10 * DefaultTickPeriod); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(p.Output(), "X") {
		t.Fatal("task read the platform key")
	}
}

// TestAttackForgedIPCSenderIdentity: a task cannot make the proxy lie
// about who sent a message — the proxy derives idS from the interrupt
// origin, not from anything the sender controls.
func TestAttackForgedIPCSenderIdentity(t *testing.T) {
	p := newTyTAN(t)
	mallory, malID, err := p.LoadTaskSync(GenTestImage(t, "mallory"), Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	alice, aliceID, err := p.LoadTaskSync(GenTestImage(t, "alice"), Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	bob, bobID, err := p.LoadTaskSync(GenTestImage(t, "bob"), Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = alice
	_ = aliceID

	// Mallory sends to Bob. Whatever registers she fills, Bob's mailbox
	// carries Mallory's measured identity.
	status := p.C.Proxy.Send(p.K, mallory, bobID.TruncatedID(), []uint32{1}, 4, false)
	if status != trusted.IPCStatusOK {
		t.Fatalf("send = %d", status)
	}
	e, _ := p.C.RTM.LookupByTask(bob.ID)
	box, _ := trusted.MailboxAddr(e)
	var lo, hi uint32
	p.M.WithExecContext(bob.Placement.Base, func() {
		lo, _ = p.M.Read32(box + 4)
		hi, _ = p.M.Read32(box + 8)
	})
	got := uint64(lo) | uint64(hi)<<32
	if got != malID.TruncatedID() {
		t.Errorf("sender identity = %#x, want mallory's %#x", got, malID.TruncatedID())
	}
	if got == aliceID.TruncatedID() {
		t.Error("identity spoofed to alice")
	}
}

// TestAttackSlotExhaustionIsBounded: a provider loading tasks until the
// EA-MPU runs out of slots gets clean failures; already-loaded tasks
// keep running (availability, §5: tasks are "bound in their use of
// system resources").
func TestAttackSlotExhaustionIsBounded(t *testing.T) {
	p := newTyTAN(t)
	var loaded []rtos.TaskID
	var firstErr error
	for i := 0; i < 32; i++ {
		tcb, _, err := p.LoadTaskSync(GenTestImage(t, "flood"), Secure, 2)
		if err != nil {
			firstErr = err
			break
		}
		loaded = append(loaded, tcb.ID)
	}
	if firstErr == nil {
		t.Fatal("slot exhaustion never surfaced")
	}
	if !errors.Is(firstErr, ErrLoadFailed) {
		t.Errorf("exhaustion error = %v", firstErr)
	}
	if len(loaded) == 0 {
		t.Fatal("nothing loaded before exhaustion")
	}
	// Everything already loaded still exists and the platform still
	// schedules.
	for _, id := range loaded {
		if _, ok := p.K.Task(id); !ok {
			t.Errorf("task %d lost during exhaustion", id)
		}
	}
	if err := p.Run(5 * DefaultTickPeriod); err != nil {
		t.Fatal(err)
	}
	// Unloading one frees a slot; loading works again.
	if err := p.Unload(loaded[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.LoadTaskSync(GenTestImage(t, "again"), Secure, 2); err != nil {
		t.Errorf("load after unload failed: %v", err)
	}
}

// TestAttackSpinningTaskCannotStarve: a busy-looping task at one
// priority cannot starve an equal-priority peer (round robin) nor a
// higher-priority one (pre-emption) — the §5 availability argument.
func TestAttackSpinningTaskCannotStarve(t *testing.T) {
	p := newTyTAN(t)
	spin := mustImage(t, `
.task "hog"
.entry main
.stack 128
.bss 28
.text
main:
    jmp main
`)
	beat := mustImage(t, `
.task "beat"
.entry main
.stack 128
.bss 28
.text
main:
    ldi r1, 46   ; '.'
loop:
    svc 5
    ldi r0, 30000
    svc 2
    jmp loop
`)
	if _, _, err := p.LoadTaskSync(spin, Secure, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.LoadTaskSync(beat, Secure, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(40 * DefaultTickPeriod); err != nil {
		t.Fatal(err)
	}
	dots := strings.Count(p.Output(), ".")
	if dots < 35 {
		t.Errorf("high-priority heartbeat ran %d times in 40 periods; starved by the hog", dots)
	}
}

// TestAttackEAMPUDriverOverlap: a malicious load cannot claim a region
// overlapping an existing task (the Table 6 policy check).
func TestAttackEAMPUDriverOverlap(t *testing.T) {
	p := newTyTAN(t)
	victim, _, err := p.LoadTaskSync(GenTestImage(t, "v"), Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	rule := eampu.Rule{
		Code:  eampu.Region{Start: 0x30_0000, Size: 0x100},
		Data:  victim.Placement.Region(),
		Perm:  eampu.PermRW,
		Owner: 999,
	}
	if _, err := p.C.Driver.Configure(rule); !errors.Is(err, eampu.ErrOverlap) {
		t.Errorf("overlapping claim = %v, want ErrOverlap", err)
	}
}

// forgerTask loads a forged stack pointer from its data word (patched
// after load, once every placement is known) and then either spins
// until the tick pre-empts it or sleeps through svc 2. Either way the
// kernel banks its context at the forged SP.
const forgerTask = `
.task "forger"
.entry main
.stack 128
.bss 28
.text
main:
    ldi32 r1, target
    ld r7, [r1+0]
    ldi32 r0, 0xDEADBEEF
    ldi32 r2, 0xDEADBEEF
%s
spin:
    jmp spin
.data
target:
    .word 0
`

// sleeperTask is a secure task with known data and a mailbox; it prints
// 'V' each time it wakes and never writes its own data.
const sleeperTask = `
.task "sleeper"
.entry main
.stack 128
.bss 28
.text
main:
    ldi r1, 86   ; 'V'
    svc 5
    ldi r0, 30000
    svc 2
    jmp main
.data
    .word 0x11111111, 0x22222222, 0x33333333, 0x44444444
    .word 0x55555555, 0x66666666, 0x77777777, 0x88888888
    .word 0x99999999, 0xAAAAAAAA, 0xBBBBBBBB, 0xCCCCCCCC
`

// TestAttackForgedStackPointer: a task that aims SP at memory it does
// not own cannot make the kernel bank its context there. The frame-bank
// gate checks the whole 40-byte span against the task's own stack
// before any byte is written, so the target stays intact, the forger
// exits with stack-overflow, the run itself does not fail and the
// co-resident secure task keeps printing — on the tick path and the
// syscall path, on both engines, with identical cycles and exit record.
func TestAttackForgedStackPointer(t *testing.T) {
	frame := uint32(rtos.ContextFrameBytes)
	// ram marks targets whose span is RAM, so the byte compare below
	// is not vacuous; the UART output covers the MMIO target.
	targets := []struct {
		name string
		ram  bool
		sp   func(p *Platform, victim, forger *rtos.TCB) uint32
	}{
		{"victim-data", true, func(_ *Platform, v, _ *rtos.TCB) uint32 { return v.Placement.DataBase() + 48 }},
		{"victim-mailbox", true, func(p *Platform, v, _ *rtos.TCB) uint32 {
			e, _ := p.C.RTM.LookupByTask(v.ID)
			box, _ := trusted.MailboxAddr(e)
			return box + frame
		}},
		{"idt", true, func(*Platform, *rtos.TCB, *rtos.TCB) uint32 { return machine.IDTBase + frame }},
		{"trusted-area", true, func(*Platform, *rtos.TCB, *rtos.TCB) uint32 { return trusted.RTMBase + 0x40 }},
		{"mmio-uart", false, func(*Platform, *rtos.TCB, *rtos.TCB) uint32 {
			return machine.DeviceAddr(machine.PageUART) + frame
		}},
		{"unmapped-low", false, func(*Platform, *rtos.TCB, *rtos.TCB) uint32 { return 8 }},
		{"above-stack-top", true, func(_ *Platform, _, f *rtos.TCB) uint32 { return f.Placement.StackTop() + frame }},
		{"below-stack-base", true, func(_ *Platform, _, f *rtos.TCB) uint32 { return f.Placement.StackBase() }},
	}
	paths := []struct{ name, tail string }{
		{"tick", ""},
		{"svc", "    ldi r0, 100\n    svc 2"},
	}
	prev := machine.FastPathDefault
	defer func() { machine.FastPathDefault = prev }()
	for _, tg := range targets {
		for _, path := range paths {
			t.Run(tg.name+"/"+path.name, func(t *testing.T) {
				var runs [2]string
				for i, fast := range []bool{true, false} {
					machine.FastPathDefault = fast
					p := newTyTAN(t)
					victim, _, err := p.LoadTaskSync(mustImage(t, sleeperTask), Secure, 2)
					if err != nil {
						t.Fatal(err)
					}
					forger, _, err := p.LoadTaskSync(mustImage(t, fmt.Sprintf(forgerTask, path.tail)), Normal, 3)
					if err != nil {
						t.Fatal(err)
					}
					sp := tg.sp(p, victim, forger)
					if err := p.M.RawWrite32(forger.Placement.DataBase(), sp); err != nil {
						t.Fatal(err)
					}
					before, err := p.M.ReadBytes(sp-frame, frame)
					if tg.ram && err != nil {
						t.Fatalf("target span not in RAM: %v", err)
					}
					if err := p.Run(10 * DefaultTickPeriod); err != nil {
						t.Fatalf("fast=%v: run failed: %v", fast, err)
					}
					if after, _ := p.M.ReadBytes(sp-frame, frame); !bytes.Equal(before, after) {
						t.Errorf("fast=%v: frame span [%#x,%#x) changed:\n% x\n% x", fast, sp-frame, sp, before, after)
					}
					ex := forger.Exit
					if ex == nil || ex.Cause != rtos.ExitStackOverflow || ex.FaultAddr != sp-frame {
						t.Fatalf("fast=%v: forger exit = %+v, want stack-overflow at %#x", fast, ex, sp-frame)
					}
					if out := p.Output(); out == "" || strings.Trim(out, "V") != "" {
						t.Errorf("fast=%v: output %q, want only the sleeper's Vs", fast, out)
					}
					runs[i] = fmt.Sprintf("cycles=%d violations=%d exit=%+v",
						p.M.Cycles(), p.M.MPU.Violations(), *ex)
				}
				if runs[0] != runs[1] {
					t.Errorf("engines differ:\nprod %s\nref  %s", runs[0], runs[1])
				}
			})
		}
	}
}

// selfRewriteTask stores over its own first text word after the RTM
// has measured it, prints 'W' once the store went through, then sleeps.
const selfRewriteTask = `
.task "self-rewrite"
.entry main
.stack 128
.bss 28
.text
main:
    ldi32 r1, main
    ldi32 r2, 0x41414141
    st [r1+0], r2     ; rewrite the measured code
    ldi r1, 87        ; 'W'
    svc 5
sleep:
    ldi r0, 30000
    svc 2
    jmp sleep
`

// TestAttackSelfRewriteAfterMeasurement pins a known gap (ROADMAP item
// 12): a secure task may rewrite its own code after measurement,
// because Driver.ProtectTask grants it one PermRWX rule over its whole
// region, and the quote still carries the load-time identity, because
// the RTM measures only at load. The OS, which holds no rule over a
// secure task, is refused the same store. Whoever closes the gap flips
// the first two assertions. Both engines, identical cycles.
func TestAttackSelfRewriteAfterMeasurement(t *testing.T) {
	const rewritten, osWord = 0x41414141, 0x42424242
	prev := machine.FastPathDefault
	defer func() { machine.FastPathDefault = prev }()
	var runs [2]string
	for i, fast := range []bool{true, false} {
		machine.FastPathDefault = fast
		p := newTyTAN(t)
		im := mustImage(t, selfRewriteTask)
		task, _, err := p.LoadTaskSync(im, Secure, 3)
		if err != nil {
			t.Fatal(err)
		}
		text := task.Placement.TextBase()
		if task.EntryAddr != text {
			t.Fatalf("entry %#x is not the first text word %#x", task.EntryAddr, text)
		}
		if err := p.Run(10 * DefaultTickPeriod); err != nil {
			t.Fatalf("fast=%v: run failed: %v", fast, err)
		}

		// Today's outcome: the store lands and the task runs on.
		if got, _ := p.M.RawRead32(text); got != rewritten {
			t.Errorf("fast=%v: first text word = %#x, want the task's own store %#x", fast, got, uint32(rewritten))
		}
		if _, ok := p.K.Task(task.ID); !ok || task.Exit != nil {
			t.Fatalf("fast=%v: self-rewriting task did not survive: exit %+v", fast, task.Exit)
		}
		if out := p.Output(); !strings.HasPrefix(out, "W") {
			t.Errorf("fast=%v: output %q, want the post-store 'W'", fast, out)
		}
		// The quote vouches for the code as loaded, not as it now is.
		q, err := p.Provider("").Quote(task.ID, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Provider("").Verifier().Verify(q, trusted.IdentityOfImage(im), 7); err != nil {
			t.Errorf("fast=%v: quote no longer carries the load-time identity: %v", fast, err)
		}

		// The OS context holds no rule over a secure task: refused.
		var osErr error
		p.M.WithExecContext(trusted.OSBase, func() { osErr = p.M.Write32(text, osWord) })
		if osErr == nil {
			t.Errorf("fast=%v: OS store over a secure task's text succeeded", fast)
		}
		if got, _ := p.M.RawRead32(text); got != rewritten {
			t.Errorf("fast=%v: first text word = %#x after the refused OS store", fast, got)
		}
		runs[i] = fmt.Sprintf("cycles=%d violations=%d output=%q", p.M.Cycles(), p.M.MPU.Violations(), p.Output())
	}
	if runs[0] != runs[1] {
		t.Errorf("engines differ:\nprod %s\nref  %s", runs[0], runs[1])
	}
}

// GenTestImage builds a small distinct secure-task image (the name is
// baked into the TELF header, so each call yields a distinct identity).
func GenTestImage(t *testing.T, name string) *telf.Image {
	t.Helper()
	im := mustImage(t, `
.task "`+name+`"
.entry main
.stack 128
.bss 28
.text
main:
    ldi r0, 30000
    svc 2
    jmp main
.data
tag:
    .byte `+itoaBytes(name)+`
`)
	return im
}
