package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/rtos"
	"repro/internal/trace"
	"repro/internal/trusted"
)

func signedMeter(t *testing.T, p *Platform, src string, version uint64) []byte {
	t.Helper()
	pkg, err := p.SignUpdate(mustImage(t, src), version)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func TestSecureUpdateEndToEnd(t *testing.T) {
	p := newTyTAN(t)
	o := p.EnableObservability()
	old, _, err := p.LoadTaskSync(mustImage(t, meterV1), Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(200_000); err != nil {
		t.Fatal(err)
	}
	before := p.Output()
	if !strings.Contains(before, "1") {
		t.Fatalf("v1 not running: %q", before)
	}

	rep, err := p.ApplyUpdate(old.ID, signedMeter(t, p, meterV2, 2), 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromVersion != 0 || rep.ToVersion != 2 {
		t.Errorf("versions %d→%d, want 0→2", rep.FromVersion, rep.ToVersion)
	}
	if rep.NewIdentity != trusted.IdentityOfImage(mustImage(t, meterV2)) {
		t.Error("new identity mismatch")
	}
	// The in-band quote verifies out of band.
	if err := p.Provider("").Verifier().Verify(rep.Quote, rep.NewIdentity, 0xBEEF); err != nil {
		t.Errorf("post-update quote: %v", err)
	}
	if err := p.Run(200_000); err != nil {
		t.Fatal(err)
	}
	after := p.Output()[len(before):]
	if !strings.Contains(after, "2") || strings.Contains(after, "1") {
		t.Errorf("post-update output %q, want only v2's '2's", after)
	}
	// A downgrade through the platform surface is refused.
	if _, err := p.ApplyUpdate(rep.New, signedMeter(t, p, meterV1, 1), 0); !errors.Is(err, trusted.ErrUpdateDowngrade) {
		t.Errorf("downgrade = %v", err)
	}
	// Decisions reached the shared event stream and the gauges.
	var accepted, denied int
	for _, ev := range o.Events() {
		switch ev.Kind {
		case trace.KindUpdateAccepted:
			accepted++
		case trace.KindUpdateDenied:
			denied++
		}
	}
	if accepted != 1 || denied != 1 {
		t.Errorf("events: %d accepted, %d denied; want 1, 1", accepted, denied)
	}
	if c := p.updateCounts(); c.Accepted != 1 || c.Denied != 1 {
		t.Errorf("counts = %+v", c)
	}
}

func TestSecureUpdateConfigurationGates(t *testing.T) {
	bp, err := NewPlatform(Options{Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bp.EnableSecureUpdate(); !errors.Is(err, ErrBaselineOnly) {
		t.Errorf("baseline EnableSecureUpdate = %v", err)
	}
	if _, err := bp.ApplyUpdate(1, nil, 0); !errors.Is(err, ErrBaselineOnly) {
		t.Errorf("baseline ApplyUpdate = %v", err)
	}

	sp, err := NewPlatform(Options{
		Static:     []StaticTask{{Image: mustImage(t, meterV1), Kind: Secure, Prio: 3}},
		StaticOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := sp.SignUpdate(mustImage(t, meterV2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.ApplyUpdate(2, pkg, 0); !errors.Is(err, ErrStaticConfig) {
		t.Errorf("static ApplyUpdate = %v", err)
	}
}

// TestSecureUpdateCounterSurvivesRestart: the sealed version counter is
// bound to the measured identity, not the task incarnation — a
// supervisor restart of the updated binary leaves rollback protection
// intact.
func TestSecureUpdateCounterSurvivesRestart(t *testing.T) {
	p := supervisedPlatform(t, trusted.SupervisorPolicy{
		MaxRestarts:  2,
		RestartDelay: 10_000,
	})
	old, _, err := p.LoadTaskSync(mustImage(t, meterV1), Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.ApplyUpdate(old.ID, signedMeter(t, p, meterV2, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Watch(rep.New); err != nil {
		t.Fatal(err)
	}
	// Fault the updated task; the supervisor reloads the same binary —
	// same measured identity, so the restarted incarnation can unseal
	// the counter its predecessor sealed.
	if err := p.K.Kill(rep.New, rtos.ExitFault, "injected"); err != nil {
		t.Fatal(err)
	}
	restarted := func() bool {
		st, ok := p.Sup.Status("meter")
		return ok && st.State == trusted.WatchHealthy && st.Restarts == 1
	}
	if !runUntil(t, p, 5_000_000, restarted) {
		st, _ := p.Sup.Status("meter")
		t.Fatalf("no restart; status %+v", st)
	}
	st, _ := p.Sup.Status("meter")

	// Rollback protection survived the restart: same version refused...
	if _, err := p.ApplyUpdate(st.TaskID, signedMeter(t, p, meterV2, 5), 0); !errors.Is(err, trusted.ErrUpdateDowngrade) {
		t.Fatalf("equal version after restart = %v, want ErrUpdateDowngrade", err)
	}
	// ...and a fresher one still applies, seeing the persisted counter.
	rep2, err := p.ApplyUpdate(st.TaskID, signedMeter(t, p, meterV1, 6), 0)
	if err != nil {
		t.Fatalf("fresher update after restart: %v", err)
	}
	if rep2.FromVersion != 5 {
		t.Errorf("FromVersion after restart = %d, want 5", rep2.FromVersion)
	}
}

// TestSecureUpdateCounterMigratesWithIdentity: the live-update path
// (UpdateTask with slot migration) moves the version counter to the new
// identity, and the secure update service keeps enforcing monotonicity
// against it afterwards.
func TestSecureUpdateCounterMigratesWithIdentity(t *testing.T) {
	p := newTyTAN(t)
	old, _, err := p.LoadTaskSync(mustImage(t, meterV1), Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.ApplyUpdate(old.ID, signedMeter(t, p, meterV2, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Owner-authorized live update, explicitly migrating the counter
	// slot alongside the identity change.
	res, err := p.UpdateTask(rep.New, mustImage(t, meterV1), []uint32{trusted.CounterSlot("meter")})
	if err != nil {
		t.Fatal(err)
	}
	// The migrated counter still blocks downgrades...
	if _, err := p.ApplyUpdate(res.New.ID, signedMeter(t, p, meterV2, 3), 0); !errors.Is(err, trusted.ErrUpdateDowngrade) {
		t.Fatalf("downgrade after migration = %v, want ErrUpdateDowngrade", err)
	}
	// ...and a fresher version reads it as its base.
	rep2, err := p.ApplyUpdate(res.New.ID, signedMeter(t, p, meterV2, 7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.FromVersion != 4 {
		t.Errorf("FromVersion after migration = %d, want 4", rep2.FromVersion)
	}
}

// fillerSrc runs a hot loop — guaranteed superblock compilation over
// its text — and periodically yields so other tasks run too.
const fillerSrc = `
.task "filler"
.entry main
.stack 128
.bss 28
.text
main:
    ldi r2, 0
hot:
    addi r2, 1
    cmpi r2, 200
    bne hot
    ldi32 r0, 3000
    svc 2
    jmp main
`

// lateSrc is loaded into the rolled-back extent after the aborted
// update: different code at the same addresses.
const lateSrc = `
.task "late"
.entry main
.stack 128
.bss 28
.text
main:
    ldi r1, 103   ; 'g'
loop:
    svc 5
    ldi32 r0, 40000
    svc 2
    jmp loop
`

// TestUpdateAbortInvalidatesCompiledCode: differential proof that an
// aborted mid-swap load invalidates compiled superblocks and decoded
// icache lines over the reverted extent. The sequence — compile hot
// code in a region, free it, stage an update into the hole, abort the
// swap, load different code at the same addresses — must behave
// bit-identically on the reference interpreter and the production
// engine (decode caches plus superblock compiler).
func TestUpdateAbortInvalidatesCompiledCode(t *testing.T) {
	type outcome struct {
		out    string
		cycles uint64
	}
	var results []outcome
	prev := machine.FastPathDefault
	defer func() { machine.FastPathDefault = prev }()
	for _, fast := range []bool{false, true} {
		machine.FastPathDefault = fast
		p, err := NewPlatform(Options{})
		if err != nil {
			t.Fatal(err)
		}
		app, _, err := p.LoadTaskSync(mustImage(t, meterV1), Secure, 3)
		if err != nil {
			t.Fatal(err)
		}
		filler, _, err := p.LoadTaskSync(mustImage(t, fillerSrc), Secure, 2)
		if err != nil {
			t.Fatal(err)
		}
		fillerBase := filler.Placement.Base
		// Run hot: the superblock engine compiles filler's loop.
		if err := p.Run(600_000); err != nil {
			t.Fatal(err)
		}
		if fast && p.M.Stats().SBCompiles == 0 {
			t.Fatal("filler never compiled; test premise broken")
		}
		invalBefore := p.M.Stats().SBInvalidations + p.M.Stats().GenBumps

		// Free the compiled region, then stage an update into the hole
		// and abort the swap mid-install.
		if err := p.Unload(filler.ID); err != nil {
			t.Fatal(err)
		}
		u, err := p.EnableSecureUpdate()
		if err != nil {
			t.Fatal(err)
		}
		boom := errors.New("power fail")
		u.FaultHook = func(ph trusted.UpdatePhase) error {
			if ph == trusted.UpdateInstall {
				return boom
			}
			return nil
		}
		if _, err := p.ApplyUpdate(app.ID, signedMeter(t, p, meterV2, 2), 0); !errors.Is(err, trusted.ErrUpdateAborted) {
			t.Fatalf("Apply = %v, want ErrUpdateAborted", err)
		}
		u.FaultHook = nil

		// Different code into the same extent: stale compiled blocks or
		// decoded lines over the old bytes would now execute wrong code.
		late, _, err := p.LoadTaskSync(mustImage(t, lateSrc), Secure, 2)
		if err != nil {
			t.Fatal(err)
		}
		if late.Placement.Base != fillerBase {
			t.Fatalf("late task at %#x, want reuse of %#x", late.Placement.Base, fillerBase)
		}
		if err := p.Run(400_000); err != nil {
			t.Fatal(err)
		}
		if fast {
			if after := p.M.Stats().SBInvalidations + p.M.Stats().GenBumps; after == invalBefore {
				t.Error("abort/reload left compiled code uninvalidated")
			}
		}
		// The old app survived the abort and the late task runs.
		out := p.Output()
		if !strings.Contains(out, "g") {
			t.Errorf("fast=%v: late task never ran: %q", fast, out)
		}
		if !strings.Contains(out[len(out)/2:], "1") {
			t.Errorf("fast=%v: app not running after rollback: %q", fast, out)
		}
		results = append(results, outcome{out: out, cycles: p.Cycles()})
		p.Close()
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Errorf("engine %d diverged: %d cycles vs %d, output %q vs %q",
				i, results[i].cycles, results[0].cycles, results[i].out, results[0].out)
		}
	}
}
