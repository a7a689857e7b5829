package trusted

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/eampu"
	"repro/internal/hcrypto"
	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/machine"
	"repro/internal/rtos"
	"repro/internal/sha1"
	"repro/internal/telf"
)

var testKey = []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}

// rig is a booted TyTAN platform for tests.
type rig struct {
	m *machine.Machine
	k *rtos.Kernel
	c *Components
}

func newRig(t testing.TB) *rig {
	t.Helper()
	m := machine.New(4 << 20)
	m.MapDevice(machine.PageUART, machine.NewUART())
	m.MapDevice(machine.PageKeyStore, machine.NewKeyStore(testKey))
	k, err := rtos.NewKernel(m, rtos.Config{TyTAN: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Boot(k, BootConfig{Provider: "test-provider"})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{m: m, k: k, c: c}
}

func mustImage(t testing.TB, src string) *telf.Image {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// loadTask performs the full TyTAN loading sequence of §4 by hand:
// allocate, load+relocate, prepare stack, configure EA-MPU, measure,
// schedule.
func (r *rig) loadTask(t testing.TB, im *telf.Image, kind rtos.TaskKind, prio int) *rtos.TCB {
	t.Helper()
	base, scanned, err := r.k.Alloc.Alloc(loader.PlacedSize(im))
	if err != nil {
		t.Fatal(err)
	}
	r.m.Charge(machine.CostAllocBase + uint64(scanned)*machine.CostAllocPerRegion)
	job := loader.NewJob(r.m, im, base)
	cost, err := job.Run()
	r.m.Charge(cost)
	if err != nil {
		t.Fatal(err)
	}
	tcb, err := r.k.InstallTask(im.Name, kind, prio, job.Placement())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.c.Driver.ProtectTask(tcb); err != nil {
		t.Fatal(err)
	}
	if kind == rtos.KindSecure {
		mj := r.c.RTM.NewMeasureJob(im, base, nil)
		if _, err := mj.Run(); err != nil {
			t.Fatal(err)
		}
		id, err := mj.Identity()
		if err != nil {
			t.Fatal(err)
		}
		r.c.RTM.Register(tcb, im, job.Placement(), id)
	}
	return tcb
}

func TestBootStaticRules(t *testing.T) {
	r := newRig(t)
	if !r.m.MPU.Enabled() {
		t.Fatal("MPU not enabled after boot")
	}
	if r.m.MPU.UsedSlots() != 7 {
		t.Errorf("used slots = %d, want 7 static rules", r.m.MPU.UsedSlots())
	}
	// Boot report is deterministic.
	r2 := newRig(t)
	if r.c.BootReport != r2.c.BootReport {
		t.Error("boot report not deterministic")
	}
	// Locked rules cannot be cleared.
	if err := r.m.MPU.Clear(0); err != eampu.ErrSlotLocked {
		t.Errorf("clearing locked boot rule: %v", err)
	}
}

func TestIDTProtectedFromSoftware(t *testing.T) {
	r := newRig(t)
	// Software (any context) writing the IDT must fault.
	err := r.m.Write32(machine.IDTBase, 0xBAD)
	var v *eampu.Violation
	if !errors.As(err, &v) {
		t.Fatalf("IDT write = %v, want violation", err)
	}
	// Reads are fine (vectoring).
	if _, err := r.m.Read32(machine.IDTBase); err != nil {
		t.Errorf("IDT read: %v", err)
	}
	// Every vector points at the Int Mux.
	if h := r.m.IDTHandler(machine.IRQTimer); h != IntMuxBase {
		t.Errorf("timer vector = %#x", h)
	}
}

func TestKeyStoreAccessControl(t *testing.T) {
	r := newRig(t)
	base := machine.DeviceAddr(machine.PageKeyStore)
	// OS context: denied.
	var osErr error
	r.m.WithExecContext(OSBase, func() { _, osErr = r.m.Read32(base) })
	if osErr == nil {
		t.Error("OS read the platform key")
	}
	// Attest context: allowed.
	key, err := readPlatformKey(r.m, AttestBase)
	if err != nil {
		t.Fatalf("attest key read: %v", err)
	}
	if string(key) != string(testKey) {
		t.Error("key mismatch")
	}
	// Int Mux context (trusted but not crypto-capable): denied.
	var muxErr error
	r.m.WithExecContext(IntMuxBase, func() { _, muxErr = r.m.Read32(base) })
	if muxErr == nil {
		t.Error("Int Mux read the platform key")
	}
}

func TestDriverConfigureCostStructure(t *testing.T) {
	r := newRig(t)
	// Boot used slots 0..6, so the first free slot is position 8
	// (1-indexed). Cost must be 57 + 19*8 + 824 + 225.
	rule := eampu.Rule{Data: eampu.Region{Start: 0x20_0000, Size: 0x100}, Perm: eampu.PermRW, Owner: 42}
	cost, err := r.c.Driver.Configure(rule)
	if err != nil {
		t.Fatal(err)
	}
	wantFind := uint64(machine.CostSlotScanBase + 8*machine.CostSlotScanPer)
	if cost.FindSlot != wantFind {
		t.Errorf("FindSlot = %d, want %d", cost.FindSlot, wantFind)
	}
	if cost.PolicyCheck != machine.CostPolicyCheck || cost.WriteRule != machine.CostWriteRule {
		t.Errorf("cost = %+v", cost)
	}
	if cost.Slot != 7 {
		t.Errorf("slot = %d, want 7", cost.Slot)
	}
}

func TestDriverRejectsOverlap(t *testing.T) {
	r := newRig(t)
	a := eampu.Rule{Data: eampu.Region{Start: 0x20_0000, Size: 0x1000}, Perm: eampu.PermRW, Owner: 1}
	if _, err := r.c.Driver.Configure(a); err != nil {
		t.Fatal(err)
	}
	b := eampu.Rule{Data: eampu.Region{Start: 0x20_0800, Size: 0x1000}, Perm: eampu.PermRW, Owner: 2}
	if _, err := r.c.Driver.Configure(b); !errors.Is(err, eampu.ErrOverlap) {
		t.Errorf("overlapping rule = %v, want ErrOverlap", err)
	}
}

func TestProtectTaskIsolation(t *testing.T) {
	r := newRig(t)
	im := mustImage(t, `
.task "sec"
.entry main
.stack 128
.bss 28
.text
main:
    jmp main
`)
	tcb := r.loadTask(t, im, rtos.KindSecure, 3)
	region := tcb.Placement.Region()

	// OS cannot read the secure task's memory.
	var osErr error
	r.m.WithExecContext(OSBase, func() { _, osErr = r.m.Read32(region.Start) })
	if osErr == nil {
		t.Error("OS read secure task memory")
	}
	// The task can access itself.
	var selfErr error
	r.m.WithExecContext(region.Start, func() { _, selfErr = r.m.Read32(region.Start) })
	if selfErr != nil {
		t.Errorf("self access: %v", selfErr)
	}
	// The Int Mux can (context save).
	var muxErr error
	r.m.WithExecContext(IntMuxBase, func() { _, muxErr = r.m.Read32(region.Start) })
	if muxErr != nil {
		t.Errorf("int mux access: %v", muxErr)
	}
}

func TestProtectNormalTaskOSAccessible(t *testing.T) {
	r := newRig(t)
	im := mustImage(t, `
.task "norm"
.entry main
.stack 128
.text
main:
    jmp main
`)
	tcb := r.loadTask(t, im, rtos.KindNormal, 3)
	region := tcb.Placement.Region()
	var osErr error
	r.m.WithExecContext(OSBase, func() { _, osErr = r.m.Read32(region.Start) })
	if osErr != nil {
		t.Errorf("OS denied access to normal task: %v", osErr)
	}
	// Another task region still cannot.
	var taskErr error
	r.m.WithExecContext(0x30_0000, func() { _, taskErr = r.m.Read32(region.Start) })
	if taskErr == nil {
		t.Error("foreign code read normal task memory")
	}
}

func TestIntMuxCosts(t *testing.T) {
	r := newRig(t)
	im := mustImage(t, `
.task "x"
.entry main
.stack 128
.text
main:
    jmp main
`)
	tcb := r.loadTask(t, im, rtos.KindSecure, 3)

	// Run a bit so the context is live, then force an interrupt save.
	if err := r.k.RunUntil(r.m.Cycles() + 2_000); err != nil {
		t.Fatal(err)
	}
	r.m.RaiseIRQ(machine.IRQExt0)
	before := r.m.Cycles()
	if err := r.k.RunUntil(r.m.Cycles() + 1); err != nil {
		t.Fatal(err)
	}
	_ = before
	if r.c.Mux.Saves() == 0 {
		t.Fatal("no secure save happened")
	}
	_ = tcb
}

// liveTask loads a secure task and enters it the way the scheduler
// does, through an Int Mux restore of its initial frame, leaving SP at
// its stack top.
func liveTask(t testing.TB, r *rig) *rtos.TCB {
	t.Helper()
	tcb := r.loadTask(t, mustImage(t, ".task \"x\"\n.entry e\n.stack 128\n.text\ne:\n jmp e\n"), rtos.KindSecure, 3)
	if err := r.c.Mux.Restore(r.k, tcb); err != nil {
		t.Fatal(err)
	}
	return tcb
}

// TestIntMuxSaveFaultEngines saves a context onto a stack that runs
// below RAM, outside the Int Mux grant, on the production engine and on
// the reference oracle. A first save and restore on the task's own
// stack warms the decision cache. On both engines the bad frame's two
// top words must land, the save must fault at the third word, and the
// cycle and violation counts must agree.
func TestIntMuxSaveFaultEngines(t *testing.T) {
	run := func(fast bool) string {
		prev := machine.FastPathDefault
		machine.FastPathDefault = fast
		defer func() { machine.FastPathDefault = prev }()
		r := newRig(t)
		tcb := liveTask(t, r)
		if err := r.c.Mux.Save(r.k, tcb); err != nil {
			t.Fatal(err)
		}
		if err := r.c.Mux.Restore(r.k, tcb); err != nil {
			t.Fatal(err)
		}
		r.m.SetReg(isa.SP, machine.RAMBase+8)
		err := r.c.Mux.Save(r.k, tcb)
		top, _ := r.m.ReadBytes(machine.RAMBase, 8)
		return fmt.Sprintf("err=%v cycles=%d violations=%d top=%x",
			err, r.m.Cycles(), r.m.MPU.Violations(), top)
	}
	prod, ref := run(true), run(false)
	if !strings.Contains(prod, "bus error at 0xffc") {
		t.Fatalf("save below RAM: %s", prod)
	}
	if prod != ref {
		t.Fatalf("engines differ:\nprod %s\nref  %s", prod, ref)
	}
}

// BenchmarkContextFrame times one Int Mux context save plus restore on
// a booted platform: the frame path every Table 1 context switch takes.
func BenchmarkContextFrame(b *testing.B) {
	r := newRig(b)
	tcb := liveTask(b, r)
	sp := r.m.Reg(isa.SP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.m.SetReg(isa.SP, sp)
		if err := r.c.Mux.Save(r.k, tcb); err != nil {
			b.Fatal(err)
		}
		if err := r.c.Mux.Restore(r.k, tcb); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMeasurementMatchesImageIdentity(t *testing.T) {
	r := newRig(t)
	im := mustImage(t, `
.task "meas"
.entry main
.stack 256
.bss 64
.text
main:
    ldi32 r1, buf
    ldi32 r2, buf+4
    ld r0, [r1+0]
    hlt
.data
buf:
    .word 41
    .word main
`)
	base, _, err := r.k.Alloc.Alloc(im.LoadSize())
	if err != nil {
		t.Fatal(err)
	}
	job := loader.NewJob(r.m, im, base)
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	mj := r.c.RTM.NewMeasureJob(im, base, nil)
	if _, err := mj.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := mj.Identity()
	if err != nil {
		t.Fatal(err)
	}
	want := IdentityOfImage(im)
	if got != want {
		t.Errorf("measured identity %x != image identity %x", got, want)
	}
	if mj.Reverted() != len(im.Relocs) {
		t.Errorf("reverted %d fixups, want %d", mj.Reverted(), len(im.Relocs))
	}

	// Position independence: load at a different base, same identity.
	base2, _, err := r.k.Alloc.Alloc(im.LoadSize() + 4096)
	if err != nil {
		t.Fatal(err)
	}
	base2 += 1024 // guaranteed different offset within pool
	job2 := loader.NewJob(r.m, im, base2)
	if _, err := job2.Run(); err != nil {
		t.Fatal(err)
	}
	mj2 := r.c.RTM.NewMeasureJob(im, base2, nil)
	if _, err := mj2.Run(); err != nil {
		t.Fatal(err)
	}
	got2, _ := mj2.Identity()
	if got2 != want {
		t.Error("measurement is position dependent")
	}
}

func TestMeasurementInterruptible(t *testing.T) {
	r := newRig(t)
	im := mustImage(t, `
.task "big"
.entry main
.stack 128
.text
main:
    hlt
.data
`+genWords(200))
	base, _, err := r.k.Alloc.Alloc(im.LoadSize())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.NewJob(r.m, im, base).Run(); err != nil {
		t.Fatal(err)
	}

	whole := r.c.RTM.NewMeasureJob(im, base, nil)
	wholeCost, err := whole.Run()
	if err != nil {
		t.Fatal(err)
	}
	wid, _ := whole.Identity()

	chopped := r.c.RTM.NewMeasureJob(im, base, nil)
	var choppedCost uint64
	steps := 0
	for !chopped.Done() {
		used, err := chopped.Step(1) // one block at a time
		if err != nil {
			t.Fatal(err)
		}
		choppedCost += used
		steps++
		if steps > 10_000 {
			t.Fatal("measurement did not terminate")
		}
	}
	cid, _ := chopped.Identity()
	if cid != wid {
		t.Error("interrupted measurement changed the digest")
	}
	if choppedCost != wholeCost {
		t.Errorf("interrupted cost %d != whole cost %d", choppedCost, wholeCost)
	}
	if steps < 10 {
		t.Errorf("steps = %d; measurement not actually incremental", steps)
	}
	if chopped.Interruptions <= whole.Interruptions {
		t.Error("interruption counting wrong")
	}
}

// genWords emits n .word directives.
func genWords(n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += ".word " + itoa(i) + "\n"
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestMeasurementCostFormula(t *testing.T) {
	// Table 7: T = init + revert-fixed + blocks·per-block (no relocs).
	r := newRig(t)
	for _, blocks := range []int{1, 2, 4, 8} {
		im := &telf.Image{
			Name:      "b",
			Text:      make([]byte, blocks*64),
			StackSize: 64,
		}
		base, _, err := r.k.Alloc.Alloc(im.LoadSize())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loader.NewJob(r.m, im, base).Run(); err != nil {
			t.Fatal(err)
		}
		mj := r.c.RTM.NewMeasureJob(im, base, nil)
		cost, err := mj.Run()
		if err != nil {
			t.Fatal(err)
		}
		// header (20B) is hashed into the state but compressions happen
		// on section blocks; cost charged per section block.
		want := uint64(machine.CostMeasureInit) + uint64(machine.CostRevertFixed) +
			uint64(blocks)*machine.CostMeasurePerBlock
		if cost != want {
			t.Errorf("blocks=%d: cost = %d, want %d", blocks, cost, want)
		}
	}
}

func TestRegistryLifecycle(t *testing.T) {
	r := newRig(t)
	im := mustImage(t, `
.task "reg"
.entry main
.stack 128
.bss 28
.text
main:
    jmp main
`)
	tcb := r.loadTask(t, im, rtos.KindSecure, 3)
	if r.c.RTM.Entries() != 1 {
		t.Fatalf("entries = %d", r.c.RTM.Entries())
	}
	e, ok := r.c.RTM.LookupByTask(tcb.ID)
	if !ok {
		t.Fatal("no registry entry")
	}
	if e.ID != IdentityOfImage(im) {
		t.Error("registered identity wrong")
	}
	if _, _, err := r.c.RTM.LookupByTruncID(e.TruncID); err != nil {
		t.Error("trunc lookup failed")
	}
	// Unload tears everything down via the kernel hook.
	slotsBefore := r.m.MPU.UsedSlots()
	if err := r.k.Unload(tcb.ID); err != nil {
		t.Fatal(err)
	}
	if r.c.RTM.Entries() != 0 {
		t.Error("registry entry survived unload")
	}
	if r.m.MPU.UsedSlots() != slotsBefore-1 {
		t.Errorf("EA-MPU slots not released: %d -> %d", slotsBefore, r.m.MPU.UsedSlots())
	}
	if _, _, err := r.c.RTM.LookupByTruncID(e.TruncID); !errors.Is(err, ErrUnknownIdentity) {
		t.Error("stale identity still resolvable")
	}
}

// TestVerifyCheckOrder pins Verify's check order and messages — nonce,
// then identity, then MAC — which tytan-attest's demo prints.
func TestVerifyCheckOrder(t *testing.T) {
	v := NewVerifier(testKey, "test-provider")
	id, other := sha1.Sum1([]byte("task")), sha1.Sum1([]byte("other"))
	good := Quote{ID: id, Nonce: 7, MAC: v.ka.MAC(quoteMessage(id, 7))}
	forged := good
	forged.MAC[0] ^= 1
	cases := []struct {
		q        Quote
		expected sha1.Digest
		nonce    uint64
		want     string
	}{
		{good, id, 7, ""},
		{forged, other, 8, "nonce mismatch"},
		{forged, other, 7, "identity mismatch"},
		{forged, id, 7, "bad MAC"},
	}
	for _, c := range cases {
		err := v.Verify(c.q, c.expected, c.nonce)
		if c.want == "" {
			if err != nil {
				t.Errorf("genuine quote rejected: %v", err)
			}
			continue
		}
		if !errors.Is(err, ErrQuoteInvalid) || err.Error() != ErrQuoteInvalid.Error()+": "+c.want {
			t.Errorf("err = %v, want %q", err, c.want)
		}
	}
}

// TestVerifierConcurrentMAC: the plane's acceptors share one Verifier,
// so VerifyMAC must leave its key's midstates untouched. Four
// goroutines verify genuine and forged quotes through one Verifier,
// each MAC computed independently with the one-shot HMAC; run it under
// -race.
func TestVerifierConcurrentMAC(t *testing.T) {
	v := NewVerifier(testKey, "test-provider")
	ka := hcrypto.DeriveKey(testKey, AttestLabel, []byte("test-provider"))
	const workers, perWorker = 4, 64
	quotes := make([]Quote, workers*perWorker)
	for i := range quotes {
		id := sha1.Sum1([]byte(fmt.Sprintf("task %d", i)))
		quotes[i] = Quote{ID: id, Nonce: uint64(i), MAC: hcrypto.HMAC(ka, quoteMessage(id, uint64(i)))}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(qs []Quote) {
			defer wg.Done()
			for _, q := range qs {
				if err := v.VerifyMAC(q, q.Nonce); err != nil {
					errs <- fmt.Errorf("genuine quote %d rejected: %w", q.Nonce, err)
					return
				}
				forged := q
				forged.MAC[q.Nonce%sha1.Size] ^= 1
				if err := v.VerifyMAC(forged, q.Nonce); !errors.Is(err, ErrQuoteInvalid) {
					errs <- fmt.Errorf("forged quote %d: err = %v", q.Nonce, err)
					return
				}
			}
		}(quotes[w*perWorker : (w+1)*perWorker])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestVerifyMACAllocs: checking a genuine quote allocates nothing.
func TestVerifyMACAllocs(t *testing.T) {
	v := NewVerifier(testKey, "test-provider")
	id := sha1.Sum1([]byte("task"))
	q := Quote{ID: id, Nonce: 7, MAC: v.ka.MAC(quoteMessage(id, 7))}
	if n := testing.AllocsPerRun(100, func() {
		if err := v.VerifyMAC(q, 7); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("VerifyMAC allocates %v times per call, want 0", n)
	}
}

func TestAttestQuoteVerify(t *testing.T) {
	r := newRig(t)
	im := mustImage(t, `
.task "att"
.entry main
.stack 128
.bss 28
.text
main:
    jmp main
`)
	tcb := r.loadTask(t, im, rtos.KindSecure, 3)

	const nonce = 0xDEADBEEF12345678
	q, err := r.c.Attest.QuoteTask(tcb.ID, nonce)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(testKey, "test-provider")
	if err := v.Verify(q, IdentityOfImage(im), nonce); err != nil {
		t.Fatalf("genuine quote rejected: %v", err)
	}
	// Wrong nonce → replay rejected.
	if err := v.Verify(q, IdentityOfImage(im), nonce+1); err == nil {
		t.Error("replayed quote accepted")
	}
	// Wrong expected identity.
	if err := v.Verify(q, sha1.Sum1([]byte("other")), nonce); err == nil {
		t.Error("wrong identity accepted")
	}
	// Forged MAC.
	q2 := q
	q2.MAC[0] ^= 1
	if err := v.Verify(q2, IdentityOfImage(im), nonce); err == nil {
		t.Error("forged MAC accepted")
	}
	// Verifier for another provider must reject (per-provider keys).
	v2 := NewVerifier(testKey, "other-provider")
	if err := v2.Verify(q, IdentityOfImage(im), nonce); err == nil {
		t.Error("cross-provider quote accepted")
	}
	// Local attestation.
	e, _ := r.c.RTM.LookupByTask(tcb.ID)
	if !r.c.Attest.LocalAttest(e.TruncID) {
		t.Error("local attest of loaded task failed")
	}
	if r.c.Attest.LocalAttest(e.TruncID + 1) {
		t.Error("local attest of absent identity succeeded")
	}
}

func TestStorageSealUnseal(t *testing.T) {
	r := newRig(t)
	imA := mustImage(t, `
.task "a"
.entry main
.stack 128
.bss 28
.text
main:
    jmp main
`)
	imB := mustImage(t, `
.task "b"
.entry main
.stack 128
.bss 28
.text
main:
    nop
    jmp main
`)
	a := r.loadTask(t, imA, rtos.KindSecure, 3)
	b := r.loadTask(t, imB, rtos.KindSecure, 3)

	secret := []byte("calibration table v7")
	if err := r.c.Storage.Store(a, 1, secret); err != nil {
		t.Fatal(err)
	}
	got, err := r.c.Storage.Load(a, 1)
	if err != nil || string(got) != string(secret) {
		t.Fatalf("load = %q, %v", got, err)
	}
	// A different task (different identity) cannot unseal.
	if _, err := r.c.Storage.Load(b, 1); !errors.Is(err, ErrSealDenied) {
		t.Errorf("cross-task load = %v, want ErrSealDenied", err)
	}
	// Tampering at rest is detected.
	if !r.c.Storage.TamperSlot(1) {
		t.Fatal("tamper failed")
	}
	if _, err := r.c.Storage.Load(a, 1); !errors.Is(err, ErrSealDenied) {
		t.Errorf("tampered load = %v, want ErrSealDenied", err)
	}
	// Empty slot.
	if _, err := r.c.Storage.Load(a, 99); !errors.Is(err, ErrNoSlot) {
		t.Errorf("empty slot = %v, want ErrNoSlot", err)
	}
	// Same identity re-loaded (fresh task, same binary) can unseal.
	if err := r.c.Storage.Store(a, 2, secret); err != nil {
		t.Fatal(err)
	}
	if err := r.k.Unload(a.ID); err != nil {
		t.Fatal(err)
	}
	a2 := r.loadTask(t, imA, rtos.KindSecure, 3)
	got2, err := r.c.Storage.Load(a2, 2)
	if err != nil || string(got2) != string(secret) {
		t.Errorf("same-identity reload cannot unseal: %v", err)
	}
}

func TestSharedMemoryWindow(t *testing.T) {
	r := newRig(t)
	imA := mustImage(t, ".task \"wa\"\n.entry main\n.stack 128\n.bss 28\n.text\nmain:\n jmp main\n")
	imB := mustImage(t, ".task \"wb\"\n.entry main\n.stack 128\n.bss 28\n.text\nmain:\n nop\n jmp main\n")
	a := r.loadTask(t, imA, rtos.KindSecure, 3)
	b := r.loadTask(t, imB, rtos.KindSecure, 3)

	win, err := r.c.Proxy.SetupSharedMemory(r.k, a, b, 4096)
	if err != nil {
		t.Fatal(err)
	}
	probe := win.Region.Start + 16
	// Both tasks can write.
	for _, tcb := range []*rtos.TCB{a, b} {
		var werr error
		r.m.WithExecContext(tcb.Placement.Base, func() { werr = r.m.Write32(probe, 7) })
		if werr != nil {
			t.Errorf("task %q denied window access: %v", tcb.Name, werr)
		}
	}
	// "Accessible only to the communicating tasks" (§3): the window is
	// claimed, so the OS and third parties are denied.
	var osErr error
	r.m.WithExecContext(OSBase, func() { osErr = r.m.Write32(probe, 9) })
	if osErr == nil {
		t.Error("OS wrote the shared window")
	}
	c := r.loadTask(t, mustImage(t, ".task \"wc\"\n.entry main\n.stack 128\n.bss 28\n.text\nmain:\n nop\n nop\n jmp main\n"), rtos.KindSecure, 3)
	var thirdErr error
	r.m.WithExecContext(c.Placement.Base, func() { thirdErr = r.m.Write32(probe, 9) })
	if thirdErr == nil {
		t.Error("third task wrote the shared window")
	}

	// Unloading one endpoint tears the window down: memory returns to
	// the pool and the peer's grant is gone.
	liveBefore := r.k.Alloc.LiveCount()
	if err := r.k.Unload(a.ID); err != nil {
		t.Fatal(err)
	}
	if got := r.k.Alloc.LiveCount(); got != liveBefore-2 {
		t.Errorf("live allocations after unload = %d, want %d (task + window freed)", got, liveBefore-2)
	}
	found := false
	for i := 0; i < 18; i++ {
		if rule, used := r.m.MPU.Slot(i); used && rule.Data == win.Region {
			found = true
		}
	}
	if found {
		t.Error("window rules survived endpoint unload")
	}
}

func TestIPCEndToEnd(t *testing.T) {
	r := newRig(t)
	recvIm := mustImage(t, `
.task "recv"
.entry main
.stack 192
.bss 28
.text
main:
    svc 18           ; blocking receive -> r0 = 2 when message present
    cmpi r0, 2
    bne fail
    ; mailbox at bss base: load payload word 4 and print low byte
    ldi32 r6, 0      ; placeholder; real address computed below
fail:
    svc 1
`)
	_ = recvIm
	// Instead of fighting the assembler for absolute mailbox addresses,
	// drive the proxy natively and verify the ISA-visible effects.
	imA := mustImage(t, ".task \"pa\"\n.entry main\n.stack 128\n.bss 28\n.text\nmain:\n jmp main\n")
	imB := mustImage(t, ".task \"pb\"\n.entry main\n.stack 128\n.bss 28\n.text\nmain:\n nop\n jmp main\n")
	sender := r.loadTask(t, imA, rtos.KindSecure, 3)
	receiver := r.loadTask(t, imB, rtos.KindSecure, 3)
	re, _ := r.c.RTM.LookupByTask(receiver.ID)
	se, _ := r.c.RTM.LookupByTask(sender.ID)

	status := r.c.Proxy.Send(r.k, sender, re.TruncID, []uint32{0xAAAA, 0xBBBB}, 8, false)
	if status != IPCStatusOK {
		t.Fatalf("send status = %d", status)
	}
	// Mailbox in receiver memory holds flags, authentic sender id, len,
	// payload.
	box := re.Placement.BSSBase()
	read := func(off uint32) uint32 {
		var v uint32
		r.m.WithExecContext(receiver.Placement.Base, func() { v, _ = r.m.Read32(box + off) })
		return v
	}
	if read(0) != 1 {
		t.Error("mailbox flag not set")
	}
	if got := uint64(read(4)) | uint64(read(8))<<32; got != se.TruncID {
		t.Errorf("sender id = %#x, want %#x", got, se.TruncID)
	}
	if read(12) != 8 || read(16) != 0xAAAA || read(20) != 0xBBBB {
		t.Error("payload corrupted")
	}
	// Second send to a full mailbox is rejected.
	if s := r.c.Proxy.Send(r.k, sender, re.TruncID, []uint32{1}, 4, false); s != IPCStatusFull {
		t.Errorf("send to full mailbox = %d, want %d", s, IPCStatusFull)
	}
	// Unknown receiver.
	if s := r.c.Proxy.Send(r.k, sender, 0xDEAD, nil, 0, false); s != IPCStatusNoReceiver {
		t.Errorf("send to unknown = %d", s)
	}
	// OS cannot forge a mailbox write directly.
	var osErr error
	r.m.WithExecContext(OSBase, func() { osErr = r.m.Write32(box, 0) })
	if osErr == nil {
		t.Error("OS wrote receiver mailbox directly")
	}
}

func TestIPCCostCanonical(t *testing.T) {
	// The proxy cost at the paper's benchmark point (two loaded tasks,
	// three payload words) must equal 1,208 cycles (§6).
	r := newRig(t)
	imA := mustImage(t, ".task \"ca\"\n.entry main\n.stack 128\n.bss 28\n.text\nmain:\n jmp main\n")
	imB := mustImage(t, ".task \"cb\"\n.entry main\n.stack 128\n.bss 28\n.text\nmain:\n nop\n jmp main\n")
	sender := r.loadTask(t, imA, rtos.KindSecure, 3)
	receiver := r.loadTask(t, imB, rtos.KindSecure, 3)
	re, _ := r.c.RTM.LookupByTask(receiver.ID)

	before := r.m.Cycles()
	status := r.c.Proxy.Send(r.k, sender, re.TruncID, []uint32{1, 2, 3}, 12, false)
	cost := r.m.Cycles() - before
	if status != IPCStatusOK {
		t.Fatalf("status = %d", status)
	}
	if cost != 1208 {
		t.Errorf("proxy cost = %d cycles, want 1208 (§6)", cost)
	}
}

func TestBootTwiceFails(t *testing.T) {
	r := newRig(t)
	if _, err := Boot(r.k, BootConfig{}); err == nil {
		t.Error("second boot succeeded")
	}
}

func TestQuoteWireFormat(t *testing.T) {
	r := newRig(t)
	im := mustImage(t, ".task \"w\"\n.entry main\n.stack 128\n.bss 28\n.text\nmain:\n jmp main\n")
	tcb := r.loadTask(t, im, rtos.KindSecure, 3)
	q, err := r.c.Attest.QuoteTask(tcb.ID, 777)
	if err != nil {
		t.Fatal(err)
	}
	wire := q.Marshal()
	if len(wire) != QuoteSize {
		t.Fatalf("wire size %d", len(wire))
	}
	q2, err := UnmarshalQuote(wire)
	if err != nil {
		t.Fatal(err)
	}
	if q2 != q {
		t.Error("wire round trip mismatch")
	}
	// The decoded quote verifies like the original.
	v := NewVerifier(testKey, "test-provider")
	if err := v.Verify(q2, IdentityOfImage(im), 777); err != nil {
		t.Error(err)
	}
	if _, err := UnmarshalQuote(wire[:10]); err == nil {
		t.Error("short wire accepted")
	}
}

func TestDuplicateIdentityRegistryFallback(t *testing.T) {
	// Two instances of the same binary share an identity; unloading one
	// must keep the identity resolvable via the other.
	r := newRig(t)
	im := mustImage(t, ".task \"dup\"\n.entry main\n.stack 128\n.bss 28\n.text\nmain:\n jmp main\n")
	a := r.loadTask(t, im, rtos.KindSecure, 3)
	b := r.loadTask(t, im, rtos.KindSecure, 3)
	ea, _ := r.c.RTM.LookupByTask(a.ID)
	eb, _ := r.c.RTM.LookupByTask(b.ID)
	if ea.TruncID != eb.TruncID {
		t.Fatal("same binary, different identities")
	}
	if err := r.k.Unload(b.ID); err != nil {
		t.Fatal(err)
	}
	e, _, err := r.c.RTM.LookupByTruncID(ea.TruncID)
	if err != nil {
		t.Fatalf("identity unresolvable after duplicate unload: %v", err)
	}
	if e.Task.ID != a.ID {
		t.Errorf("fallback resolved to task %d, want %d", e.Task.ID, a.ID)
	}
	if err := r.k.Unload(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.c.RTM.LookupByTruncID(ea.TruncID); err == nil {
		t.Error("identity resolvable after all instances unloaded")
	}
}
