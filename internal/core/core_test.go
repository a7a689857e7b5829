package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/machine"
	"repro/internal/rtos"
	"repro/internal/telf"
	"repro/internal/trusted"
)

func newTyTAN(t *testing.T) *Platform {
	t.Helper()
	p, err := NewPlatform(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustImage(t *testing.T, src string) *telf.Image {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

const helloSrc = `
.task "hello"
.entry main
.stack 128
.bss 28
.text
main:
    ldi r1, 104   ; 'h'
    svc 5
    ldi r1, 105   ; 'i'
    svc 5
    svc 1
`

func TestPlatformBootAndRunSecureTask(t *testing.T) {
	p := newTyTAN(t)
	im := mustImage(t, helloSrc)
	tcb, id, err := p.LoadTaskSync(im, Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if id != trusted.IdentityOfImage(im) {
		t.Error("sync load identity mismatch")
	}
	if tcb.Kind != rtos.KindSecure {
		t.Errorf("kind = %v", tcb.Kind)
	}
	if err := p.Run(500_000); err != nil {
		t.Fatal(err)
	}
	if p.Output() != "hi" {
		t.Errorf("output = %q", p.Output())
	}
}

func TestBaselinePlatform(t *testing.T) {
	p, err := NewPlatform(Options{Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Baseline() {
		t.Fatal("not baseline")
	}
	im := mustImage(t, helloSrc)
	if _, _, err := p.LoadTaskSync(im, Normal, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(500_000); err != nil {
		t.Fatal(err)
	}
	if p.Output() != "hi" {
		t.Errorf("output = %q", p.Output())
	}
	// TyTAN-only operations are rejected.
	if _, err := p.Provider("").Quote(1, 1); !errors.Is(err, ErrBaselineOnly) {
		t.Errorf("Quote on baseline = %v", err)
	}
	if err := p.Seal(1, 0, nil); !errors.Is(err, ErrBaselineOnly) {
		t.Errorf("Seal on baseline = %v", err)
	}
	if strings.Contains(p.Describe(), "trusted components") {
		t.Error("baseline Describe mentions trusted components")
	}
}

func TestAsyncLoadCompletes(t *testing.T) {
	p := newTyTAN(t)
	im := mustImage(t, helloSrc)
	req := p.LoadTaskAsync(im, Secure, 3)
	if req.Done() {
		t.Fatal("async load done before running")
	}
	if err := p.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if !req.Done() {
		t.Fatalf("load not done (phase %v)", req.Phase())
	}
	if req.Err() != nil {
		t.Fatal(req.Err())
	}
	if req.Identity() != trusted.IdentityOfImage(im) {
		t.Error("async identity mismatch")
	}
	if req.EndCycle <= req.StartCycle {
		t.Error("load timing not recorded")
	}
	if p.Output() != "hi" {
		t.Errorf("output = %q", p.Output())
	}
	b := req.Breakdown
	for name, v := range map[string]uint64{
		"alloc": b.Alloc, "copy": b.Copy, "reloc": b.Reloc,
		"install": b.Install, "protect": b.Protect, "measure": b.Measure,
	} {
		if v == 0 {
			t.Errorf("breakdown %s = 0", name)
		}
	}
}

func TestAsyncLoadFailure(t *testing.T) {
	p := newTyTAN(t)
	im := &telf.Image{Name: "huge", Text: make([]byte, 4), StackSize: 1 << 25}
	req := p.LoadTaskAsync(im, Secure, 3)
	if err := p.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !req.Done() || req.Err() == nil {
		t.Fatalf("oversized load: done=%v err=%v", req.Done(), req.Err())
	}
	if !errors.Is(req.Err(), ErrLoadFailed) {
		t.Errorf("err = %v", req.Err())
	}
}

func TestUnloadSuspendResumeAPI(t *testing.T) {
	p := newTyTAN(t)
	im := mustImage(t, `
.task "spin"
.entry main
.stack 128
.bss 28
.text
main:
    jmp main
`)
	tcb, _, err := p.LoadTaskSync(im, Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if err := p.Suspend(tcb.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.Resume(tcb.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.Unload(tcb.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Identity(tcb.ID); err == nil {
		t.Error("identity of unloaded task resolvable")
	}
}

func TestQuoteRoundTrip(t *testing.T) {
	p := newTyTAN(t)
	im := mustImage(t, helloSrc)
	tcb, _, err := p.LoadTaskSync(im, Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	q, err := p.Provider("").Quote(tcb.ID, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Provider("").Verifier().Verify(q, trusted.IdentityOfImage(im), 42); err != nil {
		t.Fatal(err)
	}
}

func TestSealUnsealAPI(t *testing.T) {
	p := newTyTAN(t)
	im := mustImage(t, helloSrc)
	tcb, _, err := p.LoadTaskSync(im, Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Seal(tcb.ID, 7, []byte("state")); err != nil {
		t.Fatal(err)
	}
	got, err := p.Unseal(tcb.ID, 7)
	if err != nil || string(got) != "state" {
		t.Fatalf("unseal = %q, %v", got, err)
	}
}

func TestDescribe(t *testing.T) {
	p := newTyTAN(t)
	d := p.Describe()
	for _, want := range []string{"TyTAN", "RTM", "boot report", "1.5 kHz"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}

// controlTaskSrc is a periodic sensor→actuator control task: read the
// pedal and radar sensors, combine, command the engine, sleep one
// period. Engine commands timestamp each activation.
const controlTaskSrc = `
.task "control"
.entry main
.stack 192
.bss 28
.text
main:
    ldi32 r6, 0xF0000200   ; pedal sensor
    ldi32 r5, 0xF0000300   ; radar sensor
    ldi32 r4, 0xF0000500   ; engine actuator
loop:
    ld r0, [r6+0]
    ld r1, [r5+0]
    add r0, r1
    st [r4+0], r0
    ldi r0, 30500          ; sleep ~1 tick period
    svc 2
    jmp loop
`

// monitorTaskSrc samples the pedal sensor each period (t1's role).
const monitorTaskSrc = `
.task "monitor"
.entry main
.stack 192
.bss 28
.text
main:
    ldi32 r6, 0xF0000200
loop:
    ld r0, [r6+0]
    ldi r0, 30500
    svc 2
    jmp loop
`

// TestUseCaseRealTimeUnderLoad reproduces the Table 1 property: two
// 1.5 kHz tasks keep their rate before, during and after an
// asynchronous load whose total work exceeds one scheduling period.
func TestUseCaseRealTimeUnderLoad(t *testing.T) {
	p := newTyTAN(t)
	ctrl := mustImage(t, controlTaskSrc)
	mon := mustImage(t, monitorTaskSrc)
	if _, _, err := p.LoadTaskSync(ctrl, Secure, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.LoadTaskSync(mon, Secure, 5); err != nil {
		t.Fatal(err)
	}

	// t2: a sizeable image so the load spans many periods.
	t2 := &telf.Image{
		Name:      "radar2",
		Text:      mustImage(t, monitorTaskSrc).Text,
		Data:      make([]byte, 8_000),
		StackSize: 256,
		BSSSize:   28,
	}

	const phase = 50 * DefaultTickPeriod // ≈33 ms per observation window

	countIn := func(from, to uint64) int {
		n := 0
		for _, c := range p.Engine.Commands() {
			if c.Cycle >= from && c.Cycle < to {
				n++
			}
		}
		return n
	}

	// Phase 1: before loading.
	s1 := p.Cycles()
	if err := p.Run(phase); err != nil {
		t.Fatal(err)
	}
	e1 := p.Cycles()

	// Phase 2: while loading t2.
	req := p.LoadTaskAsync(t2, Secure, 2)
	s2 := p.Cycles()
	if err := p.Run(phase); err != nil {
		t.Fatal(err)
	}
	e2 := p.Cycles()
	if !req.Done() {
		t.Fatalf("t2 load still %v after one phase; want done within the window", req.Phase())
	}
	loadCycles := req.EndCycle - req.StartCycle
	if loadCycles < 2*DefaultTickPeriod {
		t.Errorf("t2 load took %d cycles; want > 2 periods so the test is meaningful", loadCycles)
	}

	// Phase 3: after loading.
	s3 := p.Cycles()
	if err := p.Run(phase); err != nil {
		t.Fatal(err)
	}
	e3 := p.Cycles()

	// The control task must hold its rate in all three phases (40
	// periods → ≈50 activations, allow slack for phase boundaries).
	for i, w := range []struct{ from, to uint64 }{{s1, e1}, {s2, e2}, {s3, e3}} {
		got := countIn(w.from, w.to)
		if got < 45 || got > 55 {
			t.Errorf("phase %d: %d engine commands in 50 periods, want ≈50", i+1, got)
		}
	}
}

func TestLoaderServiceBounded(t *testing.T) {
	// The loader must never run longer than its quantum per dispatch:
	// watch the biggest uninterrupted gap between engine commands while
	// a load is in flight (deadline jitter proxy).
	p := newTyTAN(t)
	ctrl := mustImage(t, controlTaskSrc)
	if _, _, err := p.LoadTaskSync(ctrl, Secure, 5); err != nil {
		t.Fatal(err)
	}
	big := &telf.Image{Name: "big", Text: make([]byte, 64), Data: make([]byte, 20_000), StackSize: 128}
	p.LoadTaskAsync(big, Secure, 2)
	if err := p.Run(80 * DefaultTickPeriod); err != nil {
		t.Fatal(err)
	}
	cmds := p.Engine.Commands()
	if len(cmds) < 10 {
		t.Fatalf("only %d activations", len(cmds))
	}
	var worst uint64
	for i := 1; i < len(cmds); i++ {
		gap := cmds[i].Cycle - cmds[i-1].Cycle
		if gap > worst {
			worst = gap
		}
	}
	// Period ≈ 31k + overheads; anything beyond 2 periods means the
	// loader blocked the control task.
	if worst > 2*DefaultTickPeriod {
		t.Errorf("worst activation gap = %d cycles (> 2 periods)", worst)
	}
}

func TestSensorsAndEngineWiring(t *testing.T) {
	p := newTyTAN(t)
	if v := p.Pedal.Read(machine.SensorRegValue); v > 100 {
		t.Errorf("pedal = %d", v)
	}
	if p.Radar.Name() != "radar" || p.Pedal.Name() != "pedal" {
		t.Error("sensor names")
	}
	p.Engine.Write(machine.EngineRegSpeed, 55)
	if p.Engine.Read(machine.EngineRegSpeed) != 55 {
		t.Error("engine readback")
	}
}

func TestPerProviderQuotes(t *testing.T) {
	p := newTyTAN(t)
	im := mustImage(t, helloSrc)
	tcb, _, err := p.LoadTaskSync(im, Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	expected := trusted.IdentityOfImage(im)
	const nonce = 99

	qa, err := p.Provider("tier1").Quote(tcb.ID, nonce)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := p.Provider("oem").Quote(tcb.ID, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if qa.MAC == qb.MAC {
		t.Error("providers share attestation MACs")
	}
	if err := p.Provider("tier1").Verifier().Verify(qa, expected, nonce); err != nil {
		t.Errorf("tier1 quote rejected: %v", err)
	}
	if err := p.Provider("oem").Verifier().Verify(qb, expected, nonce); err != nil {
		t.Errorf("oem quote rejected: %v", err)
	}
	// Cross-provider verification fails: stakeholders cannot verify (or
	// forge) each other's reports.
	if err := p.Provider("oem").Verifier().Verify(qa, expected, nonce); err == nil {
		t.Error("oem verified tier1's quote")
	}
	if _, err := p.Provider("x").Quote(999, 1); err == nil {
		t.Error("quoted unknown task")
	}
}

// shareMemSrc requests a shared window with a provisioned peer, writes
// a word into it, and reports the window address over IPC-free UART
// bytes (status only).
const shareMemSrc = `
.task "sharer"
.entry main
.stack 192
.bss 28
.text
main:
    ldi32 r5, peer
    ld r1, [r5+0]
    ld r2, [r5+4]
    ldi32 r3, 4096
    svc 24            ; share-mem: r0 status, r1 window
    cmpi r0, 0
    bne fail
    ldi r4, 0x77
    st [r1+0], r4     ; write into the window
    ldi r1, 79        ; 'O'
    svc 5
    svc 1
fail:
    ldi r1, 70        ; 'F'
    svc 5
    svc 1
.data
peer:
    .word 0
    .word 0
`

func TestShareMemSyscall(t *testing.T) {
	p := newTyTAN(t)
	peerIm := GenTestImage(t, "peer")
	peer, peerID, err := p.LoadTaskSync(peerIm, Secure, 2)
	if err != nil {
		t.Fatal(err)
	}
	im := mustImage(t, shareMemSrc)
	tr := peerID.TruncatedID()
	patchWord(im.Data[0:], uint32(tr))
	patchWord(im.Data[4:], uint32(tr>>32))
	if _, _, err := p.LoadTaskSync(im, Secure, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if got := p.Output(); got != "O" {
		t.Fatalf("sharer output = %q, want \"O\"", got)
	}
	_ = peer
}

func TestStaticConfiguration(t *testing.T) {
	im := mustImage(t, helloSrc)
	p, err := NewPlatform(Options{
		Static: []StaticTask{{Image: im, Kind: Secure, Prio: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.staticOnly {
		t.Fatal("a platform booted with static tasks is not static-only")
	}
	// The boot-time task runs normally.
	if err := p.Run(500_000); err != nil {
		t.Fatal(err)
	}
	if p.Output() != "hi" {
		t.Errorf("static task output = %q", p.Output())
	}
	// Runtime management is refused.
	if _, _, err := p.LoadTaskSync(im, Secure, 3); !errors.Is(err, ErrStaticConfig) {
		t.Errorf("runtime sync load = %v", err)
	}
	req := p.LoadTaskAsync(im, Secure, 3)
	if !req.Done() || !errors.Is(req.Err(), ErrStaticConfig) {
		t.Errorf("runtime async load = %v", req.Err())
	}
	if err := p.Unload(1); !errors.Is(err, ErrStaticConfig) {
		t.Errorf("runtime unload = %v", err)
	}
	if _, err := p.ApplyUpdate(1, nil, 0); !errors.Is(err, ErrStaticConfig) {
		t.Errorf("runtime update = %v", err)
	}
}

func TestStaticBootFailureSurfaces(t *testing.T) {
	huge := &telf.Image{Name: "huge", Text: make([]byte, 4), StackSize: 1 << 25}
	if _, err := NewPlatform(Options{Static: []StaticTask{{Image: huge, Kind: Secure, Prio: 3}}}); err == nil {
		t.Error("oversized static task accepted")
	}
}

func TestMultipleAsyncLoadsQueue(t *testing.T) {
	p := newTyTAN(t)
	var reqs []*LoadRequest
	for i := 0; i < 3; i++ {
		reqs = append(reqs, p.LoadTaskAsync(GenTestImage(t, "q"+itoa(i)), Secure, 2))
	}
	if err := p.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if !r.Done() || r.Err() != nil {
			t.Errorf("load %d: done=%v err=%v phase=%v", i, r.Done(), r.Err(), r.Phase())
		}
	}
	// Loads completed in FIFO order.
	for i := 1; i < len(reqs); i++ {
		if reqs[i].EndCycle < reqs[i-1].EndCycle {
			t.Errorf("load %d finished before load %d", i, i-1)
		}
	}
}

func TestDescribeIncludesFigure(t *testing.T) {
	p := newTyTAN(t)
	if err := p.Run(10_000); err != nil {
		t.Fatal(err)
	}
	d := p.Describe()
	for _, want := range []string{"trusted", "hardware", "EA-MPU", "utilization"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q", want)
		}
	}
}
