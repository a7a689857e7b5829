package core

import (
	"errors"
	"testing"

	"repro/internal/rtos"
	"repro/internal/trusted"
)

const meterV1 = `
.task "meter"
.entry main
.stack 192
.bss 28
.text
main:
    ldi r1, 49    ; '1'
loop:
    svc 5
    ldi r0, 30000
    svc 2
    jmp loop
`

const meterV2 = `
.task "meter"
.entry main
.stack 192
.bss 28
.text
main:
    ldi r1, 50    ; '2'
loop:
    svc 5
    ldi r0, 30000
    svc 2
    jmp loop
`

func TestUpdateTaskSwitchesVersions(t *testing.T) {
	p := newTyTAN(t)
	v1 := mustImage(t, meterV1)
	v2 := mustImage(t, meterV2)
	old, oldID, err := p.LoadTaskSync(v1, Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(200_000); err != nil {
		t.Fatal(err)
	}
	beforeOut := p.Output()
	if len(beforeOut) == 0 || beforeOut[len(beforeOut)-1] != '1' {
		t.Fatalf("v1 not running: %q", beforeOut)
	}

	res, err := p.ApplyUpdate(old.ID, signedMeter(t, p, meterV2, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewIdentity == oldID {
		t.Error("update did not change the identity")
	}
	if res.NewIdentity != trusted.IdentityOfImage(v2) {
		t.Error("new identity mismatch")
	}
	if _, ok := p.K.Task(old.ID); ok {
		t.Error("old task still present")
	}
	if nt, ok := p.K.Task(res.New); !ok || nt.Priority != old.Priority {
		t.Error("priority not inherited")
	}
	// Downtime is bounded kernel work, far below a scheduling period.
	if res.DowntimeCycles > DefaultTickPeriod/4 {
		t.Errorf("downtime = %d cycles, want far below one period", res.DowntimeCycles)
	}

	if err := p.Run(200_000); err != nil {
		t.Fatal(err)
	}
	afterOut := p.Output()[len(beforeOut):]
	if len(afterOut) == 0 {
		t.Fatal("v2 never ran")
	}
	for i := 0; i < len(afterOut); i++ {
		if afterOut[i] != '2' {
			t.Fatalf("output after update contains %q, want only '2': %q", afterOut[i], afterOut)
		}
	}
}

func TestUpdateMigratesSealedState(t *testing.T) {
	p := newTyTAN(t)
	v1 := mustImage(t, meterV1)
	old, _, err := p.LoadTaskSync(v1, Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("odometer=123456")
	if err := p.Seal(old.ID, 4, secret); err != nil {
		t.Fatal(err)
	}

	res, err := p.ApplyUpdate(old.ID, signedMeter(t, p, meterV2, 2), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MigratedSlots) != 1 || res.MigratedSlots[0] != 4 {
		t.Errorf("migrated = %v", res.MigratedSlots)
	}
	got, err := p.Unseal(res.New, 4)
	if err != nil || string(got) != string(secret) {
		t.Fatalf("new version unseal = %q, %v", got, err)
	}
}

func TestUpdateWithoutMigrationLosesAccess(t *testing.T) {
	p := newTyTAN(t)
	v1 := mustImage(t, meterV1)
	old, _, err := p.LoadTaskSync(v1, Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Seal(old.ID, 4, []byte("x")); err != nil {
		t.Fatal(err)
	}
	res, err := p.ApplyUpdate(old.ID, signedMeter(t, p, meterV2, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Unseal(res.New, 4); !errors.Is(err, trusted.ErrSealDenied) {
		t.Errorf("unmigrated unseal = %v, want ErrSealDenied", err)
	}
}

func TestUpdateTransfersMailbox(t *testing.T) {
	p := newTyTAN(t)
	v1 := mustImage(t, meterV1)
	old, oldID, err := p.LoadTaskSync(v1, Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A peer sends a message that the old version never consumes.
	peer, _, err := p.LoadTaskSync(mustImage(t, helloSrc), Secure, 2)
	if err != nil {
		t.Fatal(err)
	}
	status := p.C.Proxy.Send(p.K, peer, oldID.TruncatedID(), []uint32{0xCAFE}, 4, false)
	if status != trusted.IPCStatusOK {
		t.Fatalf("send status %d", status)
	}

	res, err := p.ApplyUpdate(old.ID, signedMeter(t, p, meterV2, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The pending message now sits in the new version's mailbox.
	e, ok := p.C.RTM.LookupByTask(res.New)
	if !ok {
		t.Fatal("new task unregistered")
	}
	box, _ := trusted.MailboxAddr(e)
	read := func(off uint32) uint32 {
		var v uint32
		p.M.WithExecContext(e.Placement.Base, func() { v, _ = p.M.Read32(box + off) })
		return v
	}
	if read(0) != 1 || read(16) != 0xCAFE {
		t.Errorf("mailbox after update: flag=%d payload=%#x", read(0), read(16))
	}
}

func TestUpdateErrors(t *testing.T) {
	p := newTyTAN(t)
	v2 := signedMeter(t, p, meterV2, 2)
	if _, err := p.ApplyUpdate(999, v2, 0); !errors.Is(err, trusted.ErrUpdateBadTarget) {
		t.Errorf("unknown task = %v", err)
	}
	norm, _, err := p.LoadTaskSync(mustImage(t, meterV1), Normal, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ApplyUpdate(norm.ID, v2, 0); err == nil {
		t.Error("normal task updated")
	}
	// Baseline platform cannot update.
	bp, err := NewPlatform(Options{Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bp.ApplyUpdate(1, v2, 0); !errors.Is(err, ErrBaselineOnly) {
		t.Errorf("baseline update = %v", err)
	}
	// Migrating an empty slot fails and rolls the update back.
	sec, _, err := p.LoadTaskSync(mustImage(t, meterV2), Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ApplyUpdate(sec.ID, signedMeter(t, p, meterV1, 3), 0, 77); !errors.Is(err, trusted.ErrNoSlot) {
		t.Errorf("migration of empty slot = %v, want ErrNoSlot", err)
	}
	if _, ok := p.K.Task(sec.ID); !ok {
		t.Error("failed update removed the old task")
	}
	// A migration that fails part-way publishes nothing: the slot
	// re-sealed before the failure still belongs to the old version.
	secret := []byte("odometer=123456")
	if err := p.Seal(sec.ID, 4, secret); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ApplyUpdate(sec.ID, signedMeter(t, p, meterV1, 3), 0, 4, 77); !errors.Is(err, trusted.ErrNoSlot) {
		t.Errorf("partial migration = %v, want ErrNoSlot", err)
	}
	if got, err := p.Unseal(sec.ID, 4); err != nil || string(got) != string(secret) {
		t.Errorf("old version unseal after failed migration = %q, %v", got, err)
	}
}

// overflowTask recurses without bound and yields at every level, so
// the kernel banks its context while the stack sinks. Without the yield
// the recursion would run on through its own data and code before any
// bank saw it.
const overflowTask = `
.task "overflow"
.entry main
.stack 128
.bss 28
.text
main:
    svc 0           ; yield: bank the context at this depth
    call main       ; unbounded recursion
`

func TestStackOverflowKillsTask(t *testing.T) {
	p := newTyTAN(t)
	bad, _, err := p.LoadTaskSync(mustImage(t, overflowTask), Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	good, _, err := p.LoadTaskSync(mustImage(t, helloSrc), Secure, 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = good
	if err := p.Run(20 * DefaultTickPeriod); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.K.Task(bad.ID); ok {
		t.Error("overflowing task survived")
	}
	if ex := bad.Exit; ex == nil || ex.Cause != rtos.ExitStackOverflow || ex.FaultAddr >= bad.Placement.StackBase() {
		t.Errorf("overflow exit = %+v, want stack-overflow below stack base %#x", ex, bad.Placement.StackBase())
	}
	if p.Output() != "hi" {
		t.Errorf("lower-priority task output %q; overflow not contained", p.Output())
	}
}
