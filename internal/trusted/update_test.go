package trusted

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/rtos"
	"repro/internal/telf"
	"repro/internal/trace"
)

// appSrc renders the updatable app at a given "release": same task
// name, different delay constant → different code, different identity.
func appSrc(release int) string {
	return fmt.Sprintf(".task \"app\"\n.entry e\n.stack 128\n.bss 28\n.text\ne:\n ldi32 r0, %d\n svc 2\n jmp e\n", 100+release)
}

// updRig extends the boot rig with an updater and a signed-package
// factory.
type updRig struct {
	*rig
	u  *Updater
	ku []byte
}

func newUpdRig(t *testing.T) *updRig {
	t.Helper()
	r := newRig(t)
	u, err := NewUpdater(r.k, r.c, "test-provider")
	if err != nil {
		t.Fatal(err)
	}
	return &updRig{rig: r, u: u, ku: DeriveUpdateKey(testKey, "test-provider")}
}

// pkg signs the given app release under the rig's update key.
func (r *updRig) pkg(t *testing.T, release int, version uint64) []byte {
	t.Helper()
	b, err := telf.Sign(mustImage(t, appSrc(release)), version, r.ku)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestUpdateAccepted(t *testing.T) {
	r := newUpdRig(t)
	buf := &trace.Buffer{}
	r.u.Obs = buf
	old := r.loadTask(t, mustImage(t, appSrc(1)), rtos.KindSecure, 3)
	oldEntry, _ := r.c.RTM.LookupByTask(old.ID)

	rep, err := r.u.Apply(old.ID, r.pkg(t, 2, 5), 0xC0FFEE)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if rep.FromVersion != 0 || rep.ToVersion != 5 {
		t.Errorf("versions = %d→%d, want 0→5", rep.FromVersion, rep.ToVersion)
	}
	if rep.NewIdentity == oldEntry.ID {
		t.Error("new identity equals old identity")
	}
	if rep.DowntimeCycles == 0 {
		t.Error("downtime not accounted")
	}
	// Old task gone, new task present and measured to the new identity.
	if _, ok := r.k.Task(old.ID); ok {
		t.Error("old task still installed after accepted update")
	}
	newTCB, ok := r.k.Task(rep.New)
	if !ok || newTCB.Name != "app" {
		t.Fatalf("new task missing: %v %v", newTCB, ok)
	}
	e, ok := r.c.RTM.LookupByTask(rep.New)
	if !ok || e.ID != rep.NewIdentity {
		t.Fatalf("RTM identity = %v, want %v", e, rep.NewIdentity)
	}
	// The in-band quote verifies against the provider's verifier.
	v := NewVerifier(testKey, "test-provider")
	if err := v.Verify(rep.Quote, rep.NewIdentity, 0xC0FFEE); err != nil {
		t.Errorf("post-update quote: %v", err)
	}
	// A second update sees the persisted counter.
	rep2, err := r.u.Apply(rep.New, r.pkg(t, 3, 9), 1)
	if err != nil {
		t.Fatalf("second Apply: %v", err)
	}
	if rep2.FromVersion != 5 || rep2.ToVersion != 9 {
		t.Errorf("second update versions = %d→%d, want 5→9", rep2.FromVersion, rep2.ToVersion)
	}
	// Exactly two accepted events, no denials.
	var accepted, denied int
	for _, ev := range buf.Events() {
		switch ev.Kind {
		case trace.KindUpdateAccepted:
			accepted++
			if ev.Sub != trace.SubUpdate || ev.Subject != "app" {
				t.Errorf("accepted event mislabeled: %+v", ev)
			}
		case trace.KindUpdateDenied, trace.KindUpdateRolledBack:
			denied++
		}
	}
	if accepted != 2 || denied != 0 {
		t.Errorf("events: %d accepted, %d denied/rolled-back; want 2, 0", accepted, denied)
	}
	if c := r.u.Counts(); c.Accepted != 2 || c.Denied != 0 || c.RolledBack != 0 {
		t.Errorf("counts = %+v", c)
	}
}

func TestUpdateDowngradeRefused(t *testing.T) {
	r := newUpdRig(t)
	buf := &trace.Buffer{}
	r.u.Obs = buf
	old := r.loadTask(t, mustImage(t, appSrc(1)), rtos.KindSecure, 3)
	rep, err := r.u.Apply(old.ID, r.pkg(t, 2, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Older version, perfectly valid signature: refused.
	if _, err := r.u.Apply(rep.New, r.pkg(t, 3, 4), 0); !errors.Is(err, ErrUpdateDowngrade) {
		t.Fatalf("downgrade Apply = %v, want ErrUpdateDowngrade", err)
	}
	// Equal version is not fresher either.
	if _, err := r.u.Apply(rep.New, r.pkg(t, 3, 5), 0); !errors.Is(err, ErrUpdateDowngrade) {
		t.Fatalf("equal-version Apply = %v, want ErrUpdateDowngrade", err)
	}
	// The running task is untouched and still attests.
	if _, err := r.c.Attest.QuoteTask(rep.New, 1); err != nil {
		t.Errorf("quote after refused downgrade: %v", err)
	}
	reasons := deniedReasons(buf)
	if len(reasons) != 2 || reasons[0] != DenyDowngrade || reasons[1] != DenyDowngrade {
		t.Errorf("denied reasons = %v", reasons)
	}
}

func TestUpdateBadSignatureAndCorruptRefused(t *testing.T) {
	r := newUpdRig(t)
	buf := &trace.Buffer{}
	r.u.Obs = buf
	old := r.loadTask(t, mustImage(t, appSrc(1)), rtos.KindSecure, 3)

	// Signed under the wrong key.
	wrong, err := telf.Sign(mustImage(t, appSrc(2)), 5, []byte("not-the-key"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.u.Apply(old.ID, wrong, 0); !errors.Is(err, ErrUpdateBadSignature) {
		t.Fatalf("bad-sig Apply = %v", err)
	}
	// Flipped payload bit.
	bad := r.pkg(t, 2, 5)
	bad[len(bad)-1] ^= 0x10
	if _, err := r.u.Apply(old.ID, bad, 0); !errors.Is(err, ErrUpdateCorrupt) {
		t.Fatalf("corrupt Apply = %v", err)
	}
	if _, err := r.u.Apply(old.ID, bad, 0); !errors.Is(err, ErrUpdateDenied) {
		t.Fatal("corrupt denial does not wrap ErrUpdateDenied")
	}
	// A package for a different task name is not a valid target.
	other, err := telf.Sign(mustImage(t, ".task \"other\"\n.entry e\n.stack 128\n.bss 28\n.text\ne:\n jmp e\n"), 5, r.ku)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.u.Apply(old.ID, other, 0); !errors.Is(err, ErrUpdateBadTarget) {
		t.Fatalf("wrong-name Apply = %v", err)
	}
	// Unknown task ID.
	if _, err := r.u.Apply(rtos.TaskID(9999), r.pkg(t, 2, 5), 0); !errors.Is(err, ErrUpdateBadTarget) {
		t.Fatalf("unknown-task Apply = %v", err)
	}
	// Old task untouched throughout.
	if _, ok := r.k.Task(old.ID); !ok {
		t.Fatal("old task lost to a refused update")
	}
	want := []string{DenyBadSig, DenyCorrupt, DenyCorrupt, DenyBadTarget, DenyBadTarget}
	got := deniedReasons(buf)
	if len(got) != len(want) {
		t.Fatalf("denied reasons = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("reason[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestUpdateQuarantinedRefused(t *testing.T) {
	r := newUpdRig(t)
	old := r.loadTask(t, mustImage(t, appSrc(1)), rtos.KindSecure, 3)
	// Quarantining the *new* image's identity refuses the update before
	// any memory is touched.
	r.c.Attest.Quarantine(IdentityOfImage(mustImage(t, appSrc(2))))
	if _, err := r.u.Apply(old.ID, r.pkg(t, 2, 5), 0); !errors.Is(err, ErrUpdateQuarantined) {
		t.Fatalf("quarantined-new Apply = %v", err)
	}
	// Quarantining the old identity refuses updates of that device too.
	e, _ := r.c.RTM.LookupByTask(old.ID)
	r.c.Attest.Quarantine(e.ID)
	if _, err := r.u.Apply(old.ID, r.pkg(t, 3, 6), 0); !errors.Is(err, ErrUpdateQuarantined) {
		t.Fatalf("quarantined-old Apply = %v", err)
	}
}

func TestUpdateCounterTamperRefused(t *testing.T) {
	r := newUpdRig(t)
	old := r.loadTask(t, mustImage(t, appSrc(1)), rtos.KindSecure, 3)
	rep, err := r.u.Apply(old.ID, r.pkg(t, 2, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.c.Storage.TamperSlot(CounterSlot("app")) {
		t.Fatal("counter slot empty after accepted update")
	}
	// A tampered counter must fail closed — even for a version that
	// would legitimately be fresher.
	if _, err := r.u.Apply(rep.New, r.pkg(t, 3, 9), 0); !errors.Is(err, ErrUpdateCounterTampered) {
		t.Fatalf("tampered-counter Apply = %v, want ErrUpdateCounterTampered", err)
	}
}

// TestUpdateRollbackAtEveryPhase: a fault at any phase leaves the old
// version running with its pending mailbox message and its migrate slot
// readable and the counter unburned; the clean retry then carries both
// over to the new version.
func TestUpdateRollbackAtEveryPhase(t *testing.T) {
	const dataSlot = 4
	secret := []byte("odometer=123456")
	for _, phase := range UpdatePhases() {
		phase := phase
		t.Run(phase.String(), func(t *testing.T) {
			r := newUpdRig(t)
			buf := &trace.Buffer{}
			r.u.Obs = buf
			old := r.loadTask(t, mustImage(t, appSrc(1)), rtos.KindSecure, 3)
			if err := r.c.Storage.Store(old, dataSlot, secret); err != nil {
				t.Fatal(err)
			}
			// A peer leaves a message the old version never consumes.
			peer := r.loadTask(t, mustImage(t, ".task \"peer\"\n.entry e\n.stack 128\n.bss 28\n.text\ne:\n jmp e\n"), rtos.KindSecure, 2)
			oldEntry, _ := r.c.RTM.LookupByTask(old.ID)
			if st := r.c.Proxy.Send(r.k, peer, oldEntry.TruncID, []uint32{0xCAFE}, 4, false); st != IPCStatusOK {
				t.Fatalf("send status %d", st)
			}
			if err := r.k.Unload(peer.ID); err != nil {
				t.Fatal(err)
			}
			live := r.k.Alloc.LiveCount()

			injected := errors.New("power fail")
			r.u.FaultHook = func(p UpdatePhase) error {
				if p == phase {
					return injected
				}
				return nil
			}
			_, err := r.u.Apply(old.ID, r.pkg(t, 2, 5), 0, dataSlot)
			if !errors.Is(err, ErrUpdateAborted) {
				t.Fatalf("Apply = %v, want ErrUpdateAborted", err)
			}
			// The old task survived, is schedulable, and still attests.
			tcb, ok := r.k.Task(old.ID)
			if !ok {
				t.Fatal("old task gone after rollback")
			}
			if tcb.State == rtos.StateSuspended || tcb.State == rtos.StateDead {
				t.Fatalf("old task state = %v after rollback", tcb.State)
			}
			if _, err := r.c.Attest.QuoteTask(old.ID, 7); err != nil {
				t.Errorf("old task no longer attests: %v", err)
			}
			// It still holds its message and unseals its slot.
			if flag, payload := mailboxOf(r.rig, oldEntry); flag != 1 || payload != 0xCAFE {
				t.Errorf("old mailbox after rollback: flag=%d payload=%#x", flag, payload)
			}
			if got, err := r.c.Storage.Load(old, dataSlot); err != nil || string(got) != string(secret) {
				t.Errorf("old unseal after rollback = %q, %v", got, err)
			}
			// No leaked allocations, no half-installed twin.
			if got := r.k.Alloc.LiveCount(); got != live {
				t.Errorf("allocator live count %d, want %d", got, live)
			}
			if n := len(r.k.Tasks()); n != 1 {
				t.Errorf("%d tasks after rollback, want 1", n)
			}
			// The counter was not burned: the same version still applies
			// cleanly afterwards, carrying the message and the slot.
			r.u.FaultHook = nil
			rep, err := r.u.Apply(old.ID, r.pkg(t, 2, 5), 0, dataSlot)
			if err != nil {
				t.Fatalf("retry after rollback: %v", err)
			}
			if rep.FromVersion != 0 {
				t.Errorf("retry FromVersion = %d, want 0", rep.FromVersion)
			}
			newTCB, _ := r.k.Task(rep.New)
			newEntry, _ := r.c.RTM.LookupByTask(rep.New)
			if flag, payload := mailboxOf(r.rig, newEntry); flag != 1 || payload != 0xCAFE {
				t.Errorf("new mailbox after retry: flag=%d payload=%#x", flag, payload)
			}
			if got, err := r.c.Storage.Load(newTCB, dataSlot); err != nil || string(got) != string(secret) {
				t.Errorf("new unseal after retry = %q, %v", got, err)
			}
			// Exactly one rolled-back event naming the phase, then one
			// accepted event.
			var rolled, accepted int
			for _, ev := range buf.Events() {
				switch ev.Kind {
				case trace.KindUpdateRolledBack:
					rolled++
					if a, _ := ev.Attr("phase"); a.Str != phase.String() {
						t.Errorf("rolled-back phase attr = %q, want %q", a.Str, phase)
					}
				case trace.KindUpdateAccepted:
					accepted++
				}
			}
			if rolled != 1 || accepted != 1 {
				t.Errorf("events: %d rolled-back, %d accepted; want 1, 1", rolled, accepted)
			}
		})
	}
}

// mailboxOf reads a task's mailbox flag and first payload word from
// the IPC proxy's protection context.
func mailboxOf(r *rig, e *RegistryEntry) (flag, payload uint32) {
	box, _ := MailboxAddr(e)
	r.m.WithExecContext(IPCProxyBase, func() {
		flag, _ = r.m.Read32(box)
		payload, _ = r.m.Read32(box + 16)
	})
	return flag, payload
}

// deniedReasons extracts the reason attrs of denied events in order.
func deniedReasons(buf *trace.Buffer) []string {
	var out []string
	for _, ev := range buf.Events() {
		if ev.Kind == trace.KindUpdateDenied {
			a, _ := ev.Attr("reason")
			out = append(out, a.Str)
		}
	}
	return out
}
