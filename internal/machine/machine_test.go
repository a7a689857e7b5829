package machine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/eampu"
	"repro/internal/isa"
)

// loadProgram assembles src, loads its text at base, and points EIP and
// SP at it. Returns the machine.
func loadProgram(t *testing.T, base uint32, src string) *Machine {
	t.Helper()
	m := New(64 << 10)
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	blob := append(append([]byte(nil), im.Text...), im.Data...)
	if err := m.LoadBytes(base, blob); err != nil {
		t.Fatalf("load: %v", err)
	}
	m.SetEIP(base + im.Entry)
	m.SetReg(isa.SP, base+im.LoadSize())
	return m
}

func run(t *testing.T, m *Machine, budget uint64) RunResult {
	t.Helper()
	res := m.Run(budget)
	if res.Reason == StopFault {
		t.Fatalf("unexpected fault: %v", res.Fault)
	}
	return res
}

func TestArithmeticProgram(t *testing.T) {
	m := loadProgram(t, 0x2000, `
.text
e:
    ldi r0, 6
    ldi r1, 7
    mul r0, r1
    addi r0, -2
    hlt
`)
	res := run(t, m, 1000)
	if res.Reason != StopHalt {
		t.Fatalf("reason = %v", res.Reason)
	}
	if got := m.Reg(isa.R0); got != 40 {
		t.Errorf("r0 = %d, want 40", got)
	}
	if res.Steps != 5 {
		t.Errorf("steps = %d, want 5", res.Steps)
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..10 with a countdown loop.
	m := loadProgram(t, 0x2000, `
.text
e:
    ldi r0, 0      ; sum
    ldi r1, 10     ; i
loop:
    add r0, r1
    addi r1, -1
    cmpi r1, 0
    bne loop
    hlt
`)
	run(t, m, 10000)
	if got := m.Reg(isa.R0); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestSignedUnsignedBranches(t *testing.T) {
	// r0 = -1 (0xFFFFFFFF). Signed: -1 < 1. Unsigned: 0xFFFFFFFF > 1.
	m := loadProgram(t, 0x2000, `
.text
e:
    ldi r0, -1
    ldi r1, 1
    ldi r2, 0
    ldi r3, 0
    cmp r0, r1
    bge noslt
    ldi r2, 1       ; signed less-than taken
noslt:
    cmp r0, r1
    bltu ult
    ldi r3, 1       ; unsigned NOT less-than
ult:
    hlt
`)
	run(t, m, 10000)
	if m.Reg(isa.R2) != 1 {
		t.Error("signed comparison: -1 < 1 not detected")
	}
	if m.Reg(isa.R3) != 1 {
		t.Error("unsigned comparison: 0xFFFFFFFF treated as < 1")
	}
}

func TestCallRetStack(t *testing.T) {
	m := loadProgram(t, 0x2000, `
.stack 128
.text
e:
    ldi r0, 1
    call fn
    addi r0, 100
    hlt
fn:
    addi r0, 10
    ret
`)
	run(t, m, 10000)
	if got := m.Reg(isa.R0); got != 111 {
		t.Errorf("r0 = %d, want 111", got)
	}
}

func TestMemoryAndByteOps(t *testing.T) {
	m := loadProgram(t, 0x2000, `
.text
e:
    ldi32 r1, buf
    ldi r0, 0x1234
    st [r1+0], r0
    ld r2, [r1+0]
    ldb r3, [r1+1]
    ldi r4, 0xFF
    stb [r1+4], r4
    ldb r5, [r1+4]
    hlt
.data
buf:
    .word 0
    .word 0
`)
	// The ldi32 immediate is image-relative; the program was loaded at
	// 0x2000, so patch the relocation by hand (the loader package does
	// this for real programs).
	v, _ := m.RawRead32(0x2004)
	m.RawWrite32(0x2004, v+0x2000)
	run(t, m, 10000)
	if m.Reg(isa.R2) != 0x1234 {
		t.Errorf("r2 = %#x, want 0x1234", m.Reg(isa.R2))
	}
	if m.Reg(isa.R3) != 0x12 {
		t.Errorf("r3 = %#x, want 0x12 (byte 1 of little-endian 0x1234)", m.Reg(isa.R3))
	}
	if m.Reg(isa.R5) != 0xFF {
		t.Errorf("r5 = %#x, want 0xFF", m.Reg(isa.R5))
	}
}

func TestSVCTrap(t *testing.T) {
	m := loadProgram(t, 0x2000, `
.text
e:
    ldi r0, 5
    svc 42
    addi r0, 1
    hlt
`)
	res := run(t, m, 10000)
	if res.Reason != StopSVC || res.SVC != 42 {
		t.Fatalf("res = %+v, want SVC 42", res)
	}
	// EIP points past the SVC: resuming continues cleanly.
	res = run(t, m, 10000)
	if res.Reason != StopHalt {
		t.Fatalf("resume reason = %v", res.Reason)
	}
	if m.Reg(isa.R0) != 6 {
		t.Errorf("r0 = %d, want 6", m.Reg(isa.R0))
	}
}

func TestIllegalInstructionFault(t *testing.T) {
	m := New(64 << 10)
	m.RawWrite32(0x2000, 0xFF00_0000) // undefined opcode
	m.SetEIP(0x2000)
	res := m.Run(100)
	if res.Reason != StopFault || res.Fault == nil {
		t.Fatalf("res = %+v, want fault", res)
	}
	if !strings.Contains(res.Fault.Error(), "illegal") {
		t.Errorf("fault = %v", res.Fault)
	}
	if m.EIP() != 0x2000 {
		t.Errorf("EIP advanced past faulting instruction: %#x", m.EIP())
	}
}

func TestUnmappedAccessFault(t *testing.T) {
	m := loadProgram(t, 0x2000, `
.text
e:
    ldi r1, 0      ; null pointer
    ld r0, [r1+0]
    hlt
`)
	res := m.Run(1000)
	if res.Reason != StopFault {
		t.Fatalf("reason = %v, want fault", res.Reason)
	}
	var be *BusError
	if !errors.As(res.Fault, &be) {
		t.Errorf("fault cause = %v, want *BusError", res.Fault)
	}
}

func TestMisalignedFault(t *testing.T) {
	m := loadProgram(t, 0x2000, `
.text
e:
    ldi r1, 0x2001
    ld r0, [r1+0]
    hlt
`)
	res := m.Run(1000)
	if res.Reason != StopFault {
		t.Fatalf("reason = %v, want fault", res.Reason)
	}
}

func TestMPUEnforcedOnExecution(t *testing.T) {
	m := loadProgram(t, 0x2000, `
.text
e:
    ldi32 r1, 0x4000
    ld r0, [r1+0]   ; read the protected region
    hlt
`)
	// Protect [0x4000, 0x4100) for code at [0x5000, 0x5100) only.
	if err := m.MPU.Install(0, eampu.Rule{
		Code: eampu.Region{Start: 0x5000, Size: 0x100},
		Data: eampu.Region{Start: 0x4000, Size: 0x100},
		Perm: eampu.PermRW, Owner: 1,
	}); err != nil {
		t.Fatal(err)
	}
	m.MPU.Enable()
	res := m.Run(1000)
	if res.Reason != StopFault {
		t.Fatalf("reason = %v, want fault", res.Reason)
	}
	var v *eampu.Violation
	if !errors.As(res.Fault, &v) {
		t.Fatalf("fault cause = %v, want *eampu.Violation", res.Fault)
	}
	if v.Addr != 0x4000 || v.Kind != eampu.AccessRead {
		t.Errorf("violation = %+v", v)
	}
}

func TestEntryPointEnforcedOnBranch(t *testing.T) {
	// Task region at 0x3000 with entry 0x3000; attacker at 0x2000 jumps
	// into the middle.
	m := loadProgram(t, 0x2000, `
.text
e:
    ldi32 r1, 0x3008
    jr r1
`)
	m.RawWrite32(0x3000, 0x01000000) // hlt
	m.RawWrite32(0x3004, 0x01000000)
	m.RawWrite32(0x3008, 0x01000000)
	if err := m.MPU.Install(0, eampu.Rule{
		Code:  eampu.Region{Start: 0x3000, Size: 0x100},
		Data:  eampu.Region{Start: 0x3000, Size: 0x100},
		Perm:  eampu.PermRWX,
		Entry: 0x3000, EnforceEntry: true, Owner: 1,
	}); err != nil {
		t.Fatal(err)
	}
	m.MPU.Enable()
	res := m.Run(1000)
	if res.Reason != StopFault {
		t.Fatalf("reason = %v, want entry fault", res.Reason)
	}
	var v *eampu.Violation
	if !errors.As(res.Fault, &v) || !v.EntryErr {
		t.Errorf("fault = %v, want entry violation", res.Fault)
	}
}

func TestWithExecContext(t *testing.T) {
	m := New(64 << 10)
	if err := m.MPU.Install(0, eampu.Rule{
		Code: eampu.Region{Start: 0x8000, Size: 0x100},
		Data: eampu.Region{Start: 0x4000, Size: 0x100},
		Perm: eampu.PermRW, Owner: 1,
	}); err != nil {
		t.Fatal(err)
	}
	m.MPU.Enable()
	// Outside the trusted context the write faults.
	if err := m.Write32(0x4000, 1); err == nil {
		t.Error("unprivileged write allowed")
	}
	// Inside it, it succeeds.
	var err error
	m.WithExecContext(0x8000, func() { err = m.Write32(0x4000, 1) })
	if err != nil {
		t.Errorf("trusted write failed: %v", err)
	}
	if m.ExecContext() != 0 {
		t.Error("exec context not restored")
	}
}

func TestCycleCosts(t *testing.T) {
	m := loadProgram(t, 0x2000, `
.text
e:
    nop
    nop
    hlt
`)
	run(t, m, 1000)
	// 2 NOP (1 each) + HLT (1) = 3 cycles.
	if got := m.Cycles(); got != 3 {
		t.Errorf("cycles = %d, want 3", got)
	}
}

func TestRunBudget(t *testing.T) {
	m := loadProgram(t, 0x2000, `
.text
e:
    jmp e
`)
	res := m.Run(100)
	if res.Reason != StopBudget {
		t.Fatalf("reason = %v, want budget", res.Reason)
	}
	if m.Cycles() < 100 || m.Cycles() > 110 {
		t.Errorf("cycles = %d, want ≈100", m.Cycles())
	}
}

func TestRDCYC(t *testing.T) {
	m := loadProgram(t, 0x2000, `
.text
e:
    nop
    rdcyc r0
    hlt
`)
	run(t, m, 100)
	if m.Reg(isa.R0) != 1 {
		t.Errorf("rdcyc = %d, want 1 (after one nop)", m.Reg(isa.R0))
	}
}

func TestTimerInterruptStopsRun(t *testing.T) {
	m := loadProgram(t, 0x2000, `
.text
e:
    jmp e
`)
	timer := NewTimer(m.Cycles)
	m.MapDevice(PageTimer, timer)
	timer.Write(TimerRegPeriod, 50)
	timer.Write(TimerRegCtrl, 1)
	m.SetInterruptsEnabled(true)
	res := m.Run(100000)
	if res.Reason != StopIRQ {
		t.Fatalf("reason = %v, want irq", res.Reason)
	}
	if line, ok := m.PendingIRQ(); !ok || line != IRQTimer {
		t.Errorf("pending = (%d, %v)", line, ok)
	}
	if m.Cycles() < 50 || m.Cycles() > 60 {
		t.Errorf("stopped at cycle %d, want ≈50", m.Cycles())
	}
}

func TestInterruptMasking(t *testing.T) {
	m := New(64 << 10)
	m.RaiseIRQ(IRQExt0)
	if m.InterruptDeliverable() {
		t.Error("deliverable with global enable off")
	}
	m.SetInterruptsEnabled(true)
	if !m.InterruptDeliverable() {
		t.Error("not deliverable with global enable on")
	}
	m.SetIRQEnabled(IRQExt0, false)
	if m.InterruptDeliverable() {
		t.Error("deliverable while line masked")
	}
	m.SetIRQEnabled(IRQExt0, true)
	m.AckIRQ(IRQExt0)
	if m.InterruptDeliverable() {
		t.Error("deliverable after ack")
	}
}

func TestEnterReturnInterrupt(t *testing.T) {
	m := New(64 << 10)
	m.SetIDTHandler(3, 0x7000)
	m.SetReg(isa.SP, 0x3000)
	m.SetEIP(0x2000)
	m.SetEFLAGS(isa.FlagZ)
	m.SetInterruptsEnabled(true)

	h, err := m.EnterInterrupt(3)
	if err != nil {
		t.Fatal(err)
	}
	if h != 0x7000 {
		t.Errorf("handler = %#x", h)
	}
	if m.InterruptsEnabled() {
		t.Error("interrupts still enabled in handler")
	}
	if m.Reg(isa.SP) != 0x3000-8 {
		t.Errorf("sp = %#x", m.Reg(isa.SP))
	}
	// Clobber and restore.
	m.SetEIP(0x7000)
	m.SetEFLAGS(0)
	if err := m.ReturnFromInterrupt(); err != nil {
		t.Fatal(err)
	}
	if m.EIP() != 0x2000 || m.EFLAGS() != isa.FlagZ || m.Reg(isa.SP) != 0x3000 {
		t.Errorf("state after iret: eip=%#x eflags=%#x sp=%#x", m.EIP(), m.EFLAGS(), m.Reg(isa.SP))
	}
	if !m.InterruptsEnabled() {
		t.Error("interrupts not re-enabled")
	}
}

func TestIDTHandlerBounds(t *testing.T) {
	m := New(64 << 10)
	if m.IDTHandler(-1) != 0 || m.IDTHandler(IDTEntries) != 0 {
		t.Error("out-of-range vector returned nonzero")
	}
	if err := m.SetIDTHandler(IDTEntries, 1); err == nil {
		t.Error("out-of-range SetIDTHandler accepted")
	}
}

func TestContextSaveLoadRoundTrip(t *testing.T) {
	m := New(64 << 10)
	for i := 0; i < isa.NumRegs; i++ {
		m.SetReg(isa.Reg(i), uint32(i*11+1))
	}
	m.SetEIP(0x1234)
	m.SetEFLAGS(isa.FlagC)
	ctx := m.SaveContext()
	m.WipeRegisters()
	for i := 0; i < isa.NumRegs; i++ {
		if m.Reg(isa.Reg(i)) != 0 {
			t.Fatalf("register %d not wiped", i)
		}
	}
	if m.EFLAGS() != 0 {
		t.Error("flags not wiped")
	}
	m.LoadContext(ctx)
	if m.Reg(isa.R3) != 34 || m.EIP() != 0x1234 || m.EFLAGS() != isa.FlagC {
		t.Error("context not restored")
	}
}

func TestUARTDevice(t *testing.T) {
	m := New(64 << 10)
	u := NewUART()
	m.MapDevice(PageUART, u)
	base := DeviceAddr(PageUART)
	for _, c := range []byte("hi") {
		if err := m.RawWrite32(base+UARTRegTx, uint32(c)); err != nil {
			t.Fatal(err)
		}
	}
	if u.String() != "hi" {
		t.Errorf("uart = %q", u.String())
	}
	if n, _ := m.RawRead32(base + UARTRegCount); n != 2 {
		t.Errorf("count = %d", n)
	}
}

func TestSensorDeterminism(t *testing.T) {
	var clock uint64
	s := NewSensor("pedal", func() uint64 { return clock }, 100, 10, 20)
	seen := make(map[uint64]uint32)
	for clock = 0; clock < 5000; clock += 50 {
		seq := clock / 100
		v := s.Read(SensorRegValue)
		if prev, ok := seen[seq]; ok && prev != v {
			t.Fatalf("sample for seq %d changed: %d -> %d", seq, prev, v)
		}
		seen[seq] = v
		if v < 10 || v > 20 {
			t.Fatalf("sample %d out of range", v)
		}
	}
	// Triangle wave must move both directions.
	if s.Sample(1) <= s.Sample(0) {
		t.Error("wave not rising")
	}
	if s.Sample(11) >= s.Sample(10) {
		t.Error("wave not falling after peak")
	}
}

func TestKeyStore(t *testing.T) {
	m := New(64 << 10)
	key := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	ks := NewKeyStore(key)
	m.MapDevice(PageKeyStore, ks)
	v, err := m.RawRead32(DeviceAddr(PageKeyStore))
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x04030201 {
		t.Errorf("key word 0 = %#x", v)
	}
	if ks.Read(20) != 0 {
		t.Error("read past key end returned data")
	}
	if string(ks.Key()) != string(key) {
		t.Error("Key() mismatch")
	}
}

func TestEngineRecordsCommands(t *testing.T) {
	var clock uint64
	e := NewEngine(func() uint64 { return clock }, 2)
	clock = 10
	e.Write(EngineRegSpeed, 55)
	clock = 20
	e.Write(EngineRegSpeed, 60)
	clock = 30
	e.Write(EngineRegSpeed, 65) // over limit: value updates, history full
	cmds := e.Commands()
	if len(cmds) != 2 || cmds[0].Cycle != 10 || cmds[1].Value != 60 {
		t.Errorf("commands = %+v", cmds)
	}
	if e.Read(EngineRegSpeed) != 65 {
		t.Errorf("last = %d", e.Read(EngineRegSpeed))
	}
	if e.Read(EngineRegCount) != 2 {
		t.Errorf("count = %d", e.Read(EngineRegCount))
	}
}

func TestTimerCatchUp(t *testing.T) {
	var clock uint64
	tm := NewTimer(func() uint64 { return clock })
	tm.Write(TimerRegPeriod, 10)
	tm.Write(TimerRegCtrl, 1)
	clock = 100 // long uninterruptible stretch: many periods missed
	if _, due := tm.Due(clock); !due {
		t.Fatal("timer not due")
	}
	// After the catch-up the next fire is in the future.
	if _, due := tm.Due(clock); due {
		t.Error("timer fired twice for the same stretch")
	}
	clock = 111
	if _, due := tm.Due(clock); !due {
		t.Error("timer missed next period after catch-up")
	}
}

func TestMapDeviceTwicePanics(t *testing.T) {
	m := New(64 << 10)
	m.MapDevice(PageUART, NewUART())
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate mapping")
		}
	}()
	m.MapDevice(PageUART, NewUART())
}

func TestMMIOUnmappedPage(t *testing.T) {
	m := New(64 << 10)
	if _, err := m.RawRead32(MMIOBase + 0x4200); err == nil {
		t.Error("read from unmapped MMIO page succeeded")
	}
}

func TestMillisToCycles(t *testing.T) {
	if got := MillisToCycles(27.8); got != 1_334_400 {
		t.Errorf("27.8ms = %d cycles, want 1,334,400", got)
	}
	if CyclesToNanos(48) != 1000 {
		t.Errorf("48 cycles = %d ns, want 1000", CyclesToNanos(48))
	}
}

func TestNICFlood(t *testing.T) {
	m := New(64 << 10)
	nic := NewNIC(m.Cycles)
	m.MapDevice(PageNIC, nic)
	if _, due := nic.Due(1000); due {
		t.Error("quiet NIC raised an interrupt")
	}
	nic.Write(NICRegRate, 100)
	m.SetInterruptsEnabled(true)
	m.Charge(250)
	if line, ok := m.PendingIRQ(); !ok || line != IRQExt0 {
		t.Fatalf("pending = (%d, %v)", line, ok)
	}
	m.AckIRQ(IRQExt0)
	if nic.Received() == 0 {
		t.Error("no frames counted")
	}
	if got := nic.Read(NICRegRxCount); got != uint32(nic.Received()) {
		t.Errorf("rx count register = %d", got)
	}
	if nic.Read(NICRegRate) != 100 {
		t.Error("rate register readback")
	}
	// Catch-up after a long stretch: one pending frame, schedule in the
	// future.
	m.Charge(10_000)
	m.AckIRQ(IRQExt0)
	before := nic.Received()
	m.Charge(50)
	if nic.Received() != before {
		t.Error("NIC fired before its interval after catch-up")
	}
}

func TestAccessorsAndStringers(t *testing.T) {
	m := New(0) // default RAM size
	if m.RAMSize() != DefaultRAMSize {
		t.Errorf("RAMSize = %d", m.RAMSize())
	}
	if m.RAMEnd() != RAMBase+DefaultRAMSize {
		t.Errorf("RAMEnd = %#x", m.RAMEnd())
	}
	for r, want := range map[StopReason]string{
		StopBudget: "budget", StopHalt: "halt", StopSVC: "svc",
		StopFault: "fault", StopIRQ: "irq", StopReason(99): "stop(99)",
	} {
		if r.String() != want {
			t.Errorf("StopReason(%d).String() = %q", int(r), r.String())
		}
	}
	be := &BusError{Addr: 0x10, Why: "test"}
	if !strings.Contains(be.Error(), "0x10") {
		t.Errorf("BusError = %q", be.Error())
	}
	f := &Fault{PC: 0x20, Why: "w", Wrap: be}
	if !strings.Contains(f.Error(), "w") || !errors.Is(f, f) {
		t.Errorf("Fault = %q", f.Error())
	}
	if f.Unwrap() != be {
		t.Error("Fault.Unwrap")
	}
}

func TestDeviceAccessorAndNames(t *testing.T) {
	m := New(64 << 10)
	devs := []Device{
		NewTimer(m.Cycles), NewUART(), NewSensor("pedal", m.Cycles, 10, 0, 5),
		NewKeyStore([]byte{1}), NewEngine(m.Cycles, 4), NewNIC(m.Cycles),
	}
	names := map[string]bool{}
	for i, d := range devs {
		m.MapDevice(uint32(i), d)
		names[d.Name()] = true
	}
	for _, want := range []string{"timer", "uart", "pedal", "keystore", "engine", "nic"} {
		if !names[want] {
			t.Errorf("missing device name %q", want)
		}
	}
	if d, ok := m.Device(1); !ok || d.Name() != "uart" {
		t.Error("Device accessor")
	}
	if _, ok := m.Device(42); ok {
		t.Error("unmapped page reported present")
	}
}

func TestTimerRegisters(t *testing.T) {
	m := New(64 << 10)
	tm := NewTimer(m.Cycles)
	m.MapDevice(PageTimer, tm)
	tm.Write(TimerRegPeriod, 100)
	tm.Write(TimerRegCtrl, 1)
	if tm.Read(TimerRegCtrl) != 1 || tm.Read(TimerRegPeriod) != 100 {
		t.Error("timer register readback")
	}
	if tm.Period() != 100 || tm.NextFire() == 0 {
		t.Error("timer accessors")
	}
	m.Charge(250)
	m.AckIRQ(IRQTimer)
	if tm.TickCount() == 0 || tm.Read(TimerRegCount) == 0 {
		t.Error("tick count")
	}
	tm.Write(TimerRegCtrl, 0)
	if tm.NextFire() != 0 {
		t.Error("disabled timer NextFire")
	}
	if tm.Read(0x40) != 0 {
		t.Error("unknown register nonzero")
	}
}

func TestByteAccessEdges(t *testing.T) {
	m := New(64 << 10)
	// Byte access to MMIO is rejected.
	if _, err := m.Read8(MMIOBase); err == nil {
		t.Error("byte read from MMIO")
	}
	if err := m.Write8(MMIOBase, 1); err == nil {
		t.Error("byte write to MMIO")
	}
	// Unmapped low memory.
	if _, err := m.Read8(0x10); err == nil {
		t.Error("byte read below RAM")
	}
	if err := m.Write8(0x10, 1); err == nil {
		t.Error("byte write below RAM")
	}
	// Normal round trip.
	if err := m.Write8(0x2000, 0xAB); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read8(0x2000); v != 0xAB {
		t.Errorf("byte = %#x", v)
	}
}

func TestZeroBytes(t *testing.T) {
	m := New(64 << 10)
	m.LoadBytes(0x2000, []byte{1, 2, 3, 4, 5})
	if err := m.ZeroBytes(0x2001, 3); err != nil {
		t.Fatal(err)
	}
	b, _ := m.ReadBytes(0x2000, 5)
	if b[0] != 1 || b[1] != 0 || b[3] != 0 || b[4] != 5 {
		t.Errorf("bytes = %v", b)
	}
	if err := m.ZeroBytes(0x10, 4); err == nil {
		t.Error("zeroed unmapped memory")
	}
}

func TestCheckExecEntryHelper(t *testing.T) {
	m := New(64 << 10)
	if err := m.MPU.Install(0, eampu.Rule{
		Code: eampu.Region{Start: 0x3000, Size: 0x100},
		Data: eampu.Region{Start: 0x3000, Size: 0x100},
		Perm: eampu.PermRWX, Entry: 0x3000, EnforceEntry: true, Owner: 1,
	}); err != nil {
		t.Fatal(err)
	}
	m.MPU.Enable()
	if err := m.CheckExecEntry(0x2000, 0x3000); err != nil {
		t.Errorf("entry check at entry: %v", err)
	}
	if err := m.CheckExecEntry(0x2000, 0x3004); err == nil {
		t.Error("entry check mid-region passed")
	}
}

func TestInstructionCostDefaults(t *testing.T) {
	if InstructionCost(isa.OpMUL) != 3 {
		t.Error("MUL cost")
	}
	// Unknown ops cost 1 (fault path charges something sane).
	if InstructionCost(isa.Op(200)) != 1 {
		t.Error("unknown op cost")
	}
}

func TestSensorDegenerate(t *testing.T) {
	var clock uint64
	// Zero period is clamped; min==max is a constant wave.
	s := NewSensor("flat", func() uint64 { return clock }, 0, 7, 7)
	if s.Read(SensorRegValue) != 7 || s.Sample(99) != 7 {
		t.Error("flat sensor")
	}
	if s.Read(SensorRegPeriod) != 1 {
		t.Error("period clamp")
	}
	// Swapped min/max are normalized.
	s2 := NewSensor("swap", func() uint64 { return clock }, 10, 20, 10)
	if v := s2.Sample(0); v != 10 {
		t.Errorf("swapped bounds sample = %d", v)
	}
	if s2.Read(0x40) != 0 {
		t.Error("unknown sensor register")
	}
	s2.Write(0, 1) // read-only: no panic
}

func TestEngineIgnoresOtherRegisters(t *testing.T) {
	e := NewEngine(func() uint64 { return 0 }, 0)
	e.Write(0x40, 7)
	if len(e.Commands()) != 0 {
		t.Error("write to unknown register recorded")
	}
	if e.Read(0x40) != 0 {
		t.Error("unknown register read")
	}
	// Unlimited history.
	for i := 0; i < 10; i++ {
		e.Write(EngineRegSpeed, uint32(i))
	}
	if len(e.Commands()) != 10 {
		t.Errorf("history = %d", len(e.Commands()))
	}
}
