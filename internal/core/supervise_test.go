package core

import (
	"errors"
	"testing"

	"repro/internal/rtos"
	"repro/internal/trusted"
)

// crashySrc behaves for several delay periods, then writes into the
// trusted area — an EA-MPU violation that kills it. The benign window is
// long enough for the supervisor to adopt (and attest) each restarted
// incarnation before it crashes again; every incarnation crashes, so the
// task burns through its restart budget.
const crashySrc = `
.task "crashy"
.entry main
.stack 128
.bss 28
.text
main:
    ldi r3, 8
loop:
    ldi32 r0, 60000
    svc 2                 ; one benign period
    addi r3, -1
    cmpi r3, 0
    bne loop
    ldi32 r1, 0x6000      ; Int Mux base: trusted, never writable
    st [r1+0], r1         ; EA-MPU violation
    svc 1
`

func supervisedPlatform(t *testing.T, pol trusted.SupervisorPolicy) *Platform {
	t.Helper()
	p := newTyTAN(t)
	if _, err := p.EnableSupervision(pol); err != nil {
		t.Fatal(err)
	}
	return p
}

// runUntil advances the platform in slices until cond holds (or the
// cycle bound is exhausted).
func runUntil(t *testing.T, p *Platform, bound uint64, cond func() bool) bool {
	t.Helper()
	for p.Cycles() < bound {
		if cond() {
			return true
		}
		if err := p.Run(20_000); err != nil {
			t.Fatal(err)
		}
	}
	return cond()
}

func countEvents(sup *trusted.Supervisor, what string) int {
	n := 0
	for _, e := range sup.Events() {
		if e.What == what {
			n++
		}
	}
	return n
}

// TestSupervisorRestartsAndReattests: a faulted task is restarted
// through the full loading sequence and the new incarnation carries a
// fresh, verifiable measurement.
func TestSupervisorRestartsAndReattests(t *testing.T) {
	p := supervisedPlatform(t, trusted.SupervisorPolicy{
		MaxRestarts:  2,
		RestartDelay: 10_000,
	})
	im := mustImage(t, crashySrc)
	tcb, identity, err := p.LoadTaskSync(im, Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Watch(tcb.ID); err != nil {
		t.Fatal(err)
	}
	origID := tcb.ID

	healthyAgain := func() bool {
		st, ok := p.Sup.Status("crashy")
		return ok && st.State == trusted.WatchHealthy && st.Restarts == 1 && st.TaskID != origID
	}
	if !runUntil(t, p, 5_000_000, healthyAgain) {
		st, _ := p.Sup.Status("crashy")
		t.Fatalf("no restarted incarnation; status %+v, events %+v", st, p.Sup.Events())
	}

	st, _ := p.Sup.Status("crashy")
	if st.LastExit.Cause != rtos.ExitFault {
		t.Errorf("recorded exit cause = %v, want fault", st.LastExit.Cause)
	}
	if st.LastExit.FaultAddr != 0x6000 {
		t.Errorf("fault addr = %#x, want 0x6000", st.LastExit.FaultAddr)
	}

	// The restarted incarnation re-attests: freshly measured, same
	// binary, same identity, valid MAC.
	q, err := p.Provider("").Quote(st.TaskID, 0xC0FFEE)
	if err != nil {
		t.Fatalf("quote of restarted task: %v", err)
	}
	if err := p.Provider("").Verifier().Verify(q, identity, 0xC0FFEE); err != nil {
		t.Fatalf("restarted task failed verification: %v", err)
	}
}

// TestSupervisorQuarantineAfterBudget: the restart budget exhausts and
// the identity is condemned — later loads of the same binary exist but
// cannot be attested.
func TestSupervisorQuarantineAfterBudget(t *testing.T) {
	p := supervisedPlatform(t, trusted.SupervisorPolicy{
		MaxRestarts:  2,
		RestartDelay: 10_000,
	})
	im := mustImage(t, crashySrc)
	tcb, identity, err := p.LoadTaskSync(im, Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Watch(tcb.ID); err != nil {
		t.Fatal(err)
	}

	quarantined := func() bool {
		st, ok := p.Sup.Status("crashy")
		return ok && st.State == trusted.WatchQuarantined
	}
	if !runUntil(t, p, 20_000_000, quarantined) {
		st, _ := p.Sup.Status("crashy")
		t.Fatalf("never quarantined; status %+v, events %+v", st, p.Sup.Events())
	}

	if got := countEvents(p.Sup, "restart"); got != 2 {
		t.Errorf("restarts = %d, want 2", got)
	}
	if got := countEvents(p.Sup, "fault"); got != 3 {
		t.Errorf("faults = %d, want 3 (original + 2 restarts)", got)
	}
	if !p.C.Attest.Quarantined(identity) {
		t.Fatal("identity not quarantined in Attest")
	}
	if p.C.Attest.LocalAttest(identity.TruncatedID()) {
		t.Error("quarantined identity passes local attestation")
	}

	// Even a manual reload of the same binary cannot be attested.
	tcb2, _, err := p.LoadTaskSync(mustImage(t, crashySrc), Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Provider("").Quote(tcb2.ID, 7); !errors.Is(err, trusted.ErrQuarantined) {
		t.Errorf("quote of reloaded quarantined binary = %v, want ErrQuarantined", err)
	}
}

// TestVoluntaryExitEndsSupervision: a clean exit is not a fault; no
// restart happens.
func TestVoluntaryExitEndsSupervision(t *testing.T) {
	p := supervisedPlatform(t, trusted.SupervisorPolicy{RestartDelay: 10_000})
	tcb, _, err := p.LoadTaskSync(mustImage(t, helloSrc), Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Watch(tcb.ID); err != nil {
		t.Fatal(err)
	}
	ended := func() bool {
		st, ok := p.Sup.Status("hello")
		return ok && st.State == trusted.WatchEnded
	}
	if !runUntil(t, p, 5_000_000, ended) {
		st, _ := p.Sup.Status("hello")
		t.Fatalf("supervision did not end; status %+v", st)
	}
	if countEvents(p.Sup, "restart") != 0 {
		t.Error("voluntary exit triggered a restart")
	}
	if p.Output() != "hi" {
		t.Errorf("output = %q", p.Output())
	}
}

// TestExitInfoQueryAPI: the kernel retains structured exit records for
// every removal path.
func TestExitInfoQueryAPI(t *testing.T) {
	p := newTyTAN(t)
	tcb, _, err := p.LoadTaskSync(mustImage(t, crashySrc), Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(60 * DefaultTickPeriod); err != nil {
		t.Fatal(err)
	}
	rec, ok := p.K.ExitInfo(tcb.ID)
	if !ok {
		t.Fatal("no exit record for the faulted task")
	}
	if rec.Reason.Cause != rtos.ExitFault {
		t.Errorf("cause = %v, want fault", rec.Reason.Cause)
	}
	if rec.Reason.FaultAddr != 0x6000 {
		t.Errorf("fault addr = %#x, want 0x6000", rec.Reason.FaultAddr)
	}
	if rec.Reason.Cycle == 0 {
		t.Error("exit cycle not stamped")
	}
	if rec.Name != "crashy" {
		t.Errorf("name = %q", rec.Name)
	}
	if len(p.K.Exits()) == 0 {
		t.Error("Exits() empty")
	}

	// A clean exit records a non-fault cause.
	h, _, err := p.LoadTaskSync(mustImage(t, helloSrc), Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(20 * DefaultTickPeriod); err != nil {
		t.Fatal(err)
	}
	hrec, ok := p.K.ExitInfo(h.ID)
	if !ok {
		t.Fatal("no exit record for hello")
	}
	if hrec.Reason.Cause != rtos.ExitSelf {
		t.Errorf("hello cause = %v, want exit", hrec.Reason.Cause)
	}
	if hrec.Reason.Cause.IsFault() {
		t.Error("voluntary exit classified as fault")
	}
}
