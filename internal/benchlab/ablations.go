package benchlab

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eampu"
	"repro/internal/loader"
	"repro/internal/machine"
	"repro/internal/rtos"
	"repro/internal/trusted"
)

// Ablation benches for the design choices DESIGN.md calls out. These go
// beyond the paper's tables: each one removes or replaces a TyTAN
// design decision and quantifies what is lost.

// AblationAtomicMeasurement compares TyTAN's interruptible loading with
// the SMART/SPM-style atomic (non-interruptible) loading the related
// work uses, in the Table 1 scenario. The paper's core real-time claim
// is exactly that the atomic variant breaks deadlines.
func AblationAtomicMeasurement() (Table, error) {
	interruptible, err := RunUseCase(false)
	if err != nil {
		return Table{}, err
	}
	atomic, err := RunUseCase(true)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Ablation: interruptible vs atomic task loading (Table 1 scenario)",
		Header: []string{"Loading", "t0 rate while loading", "Worst t0 gap (cycles)", "Missed activations"},
	}
	t.AddRow("interruptible (TyTAN)", fmt.Sprintf("%.2f kHz", interruptible.RateT0[1]),
		interruptible.MaxGapDuringLoad, interruptible.Missed)
	t.AddRow("atomic (SMART/SPM-style)", fmt.Sprintf("%.2f kHz", atomic.RateT0[1]),
		atomic.MaxGapDuringLoad, atomic.Missed)
	t.Note("scheduling period: %d cycles; a gap above it is a missed deadline", useCasePeriod)
	return t, nil
}

// AblationHardwareContextSave models the alternative §4 mentions:
// "saving the task's context to its stack can be implemented in
// hardware, reducing latency at the cost of additional hardware".
func AblationHardwareContextSave() (Table, error) {
	r, err := MeasureContextSwitch()
	if err != nil {
		return Table{}, err
	}
	// A hardware implementation banks the register file and wipes it in
	// the exception engine: the software store/wipe vanish and only the
	// secure dispatch branch remains.
	hw := uint64(machine.CostSecureBranch) + 2 // bank + wipe in 2 cycles
	t := Table{
		Title:  "Ablation: software (Int Mux) vs hardware secure context save",
		Header: []string{"Implementation", "Cycles", "Overhead vs FreeRTOS", "Hardware cost"},
	}
	t.AddRow("Int Mux (TyTAN)", r.SaveTyTAN, r.SaveTyTAN-r.SaveBaseline, "none")
	t.AddRow("hardware save", hw, "—", "shadow register file + wipe logic")
	t.Note("hardware saving would cut interrupt latency by %d cycles (%.0f %%) per interrupt",
		r.SaveTyTAN-hw, float64(r.SaveTyTAN-hw)/float64(r.SaveTyTAN)*100)
	return t, nil
}

// AblationStaticMPU compares TyTAN's dynamic EA-MPU reconfiguration
// with TrustLite's boot-time-only (static) configuration — both run for
// real: the static platform is booted with its tasks fixed and then
// refuses a runtime load.
func AblationStaticMPU() (Table, error) {
	points, err := MeasureEAMPUConfig()
	if err != nil {
		return Table{}, err
	}
	perTask := points[0].Cost.Total()

	// Boot a TrustLite-style platform with two fixed tasks, then try to
	// load a third at runtime.
	static := mustPlatform(core.Options{
		Static: []core.StaticTask{
			{Image: GenImage("fixed-a", 256, nil), Kind: rtos.KindSecure, Prio: 3},
			{Image: GenImage("fixed-b", 256, nil), Kind: rtos.KindSecure, Prio: 3},
		},
	})
	_, _, loadErr := static.LoadTaskSync(GenImage("late", 256, nil), core.Secure, 3)
	staticLoad := "refused"
	if loadErr == nil {
		staticLoad = "ACCEPTED (bug)"
	}

	t := Table{
		Title:  "Ablation: dynamic (TyTAN) vs static (TrustLite) EA-MPU configuration",
		Header: []string{"Property", "TrustLite (static)", "TyTAN (dynamic)"},
	}
	t.AddRow("rule setup time", "boot only", "runtime")
	t.AddRow("per-task config cost (cycles)", uint64(0), perTask)
	t.AddRow("load new task after boot", staticLoad, "supported")
	t.AddRow("update/replace a task", "reboot required", "ApplyUpdate (bounded downtime)")
	free := eampu.NumSlots - 7 // boot rules
	t.AddRow("max concurrent protected tasks", free, free)
	t.Note("dynamic configuration buys runtime flexibility for ≈%d cycles per loaded task (<0.2 %% of a secure task's creation cost)", perTask)
	return t, nil
}

// AblationIdentityWidth quantifies footnote 9 of the paper: the
// implementation uses only the first 64 bits of the hash digest as the
// task identity "for enhanced performance".
func AblationIdentityWidth() (Table, error) {
	// The 64-bit identity fits the register-based IPC ABI in two
	// registers; a full 160-bit identity needs five, displacing every
	// payload word, so the identity would have to be passed through
	// memory: one extra mailbox-sized copy on each send plus wider
	// registry compares on each lookup.
	r, err := MeasureIPC()
	if err != nil {
		return Table{}, err
	}
	extraCopy := uint64(3) * machine.CostIPCCopyPerWord // 3 more id words written
	extraCmp := uint64(2) * machine.CostIPCLookupPerTask
	full := r.Proxy + extraCopy + extraCmp
	t := Table{
		Title:  "Ablation: truncated 64-bit vs full 160-bit task identity (§6 footnote 9)",
		Header: []string{"Identity width", "IPC proxy (cycles)", "Registry entry (bytes)", "ID in registers"},
	}
	t.AddRow("64-bit (TyTAN)", r.Proxy, 8, "2 of 7")
	t.AddRow("160-bit (full SHA-1)", full, 20, "5 of 7 (no payload room)")
	t.Note("full-width identities cost +%d cycles per send (+%.1f %%) and leave no register room for payload",
		full-r.Proxy, float64(full-r.Proxy)/float64(r.Proxy)*100)
	return t, nil
}

// AblationMailboxDepth measures IPC drop behaviour: a single-slot
// mailbox (TyTAN's design) versus what deeper mailboxes would buy, by
// counting rejected sends under bursts.
func AblationMailboxDepth() (Table, error) {
	p := mustPlatform(core.Options{})
	defer p.Close()
	sender, _, err := p.LoadTaskSync(GenImage("s", 256, nil), core.Secure, 3)
	if err != nil {
		return Table{}, err
	}
	receiver, _, err := p.LoadTaskSync(GenImage("r", 256, nil), core.Secure, 2)
	if err != nil {
		return Table{}, err
	}
	re, ok := p.C.RTM.LookupByTask(receiver.ID)
	if !ok {
		return Table{}, fmt.Errorf("benchlab: receiver unregistered")
	}
	burst := 8
	accepted, rejected := 0, 0
	for i := 0; i < burst; i++ {
		if p.C.Proxy.Send(p.K, sender, re.TruncID, []uint32{uint32(i)}, 4, false) == trusted.IPCStatusOK {
			accepted++
		} else {
			rejected++
		}
	}
	t := Table{
		Title:  "Ablation: single-slot mailbox under a send burst",
		Header: []string{"Burst size", "Accepted", "Rejected (mailbox full)"},
	}
	t.AddRow(burst, accepted, rejected)
	t.Note("TyTAN's mailbox holds one message; senders see IPCStatusFull and must retry or use shared memory — bounded memory per task by design")
	return t, nil
}

// AblationLoaderQuantum sweeps the loader-service quantum, showing the
// latency/throughput trade-off behind the chosen bound.
func AblationLoaderQuantum() (Table, error) {
	t := Table{
		Title:  "Ablation: loader quantum vs control-task jitter",
		Header: []string{"Quantum (cycles)", "Load elapsed (ms)", "Worst t0 gap (cycles)", "t0 rate while loading"},
	}
	for _, q := range []uint64{1_024, 4_096, 16_384, 1 << 40} {
		opt := core.Options{EngineHistory: 1 << 16, LoaderQuantum: q}
		p := mustPlatform(opt)
		t0 := UseCaseTaskImage(tagT0, useCasePeriod)
		if _, _, err := p.LoadTaskSync(t0, core.Secure, 5); err != nil {
			return Table{}, err
		}
		req := p.LoadTaskAsync(UseCaseT2Image(tagT2, useCasePeriod), core.Secure, 4)
		start := p.Cycles()
		for !req.Done() && p.Cycles() < start+400*core.DefaultTickPeriod {
			if err := p.Run(core.DefaultTickPeriod); err != nil {
				return Table{}, err
			}
		}
		if !req.Done() || req.Err() != nil {
			return Table{}, fmt.Errorf("benchlab: quantum %d load failed: %w", q, req.Err())
		}
		var gaps []uint64
		var prev uint64
		count := 0
		for _, c := range p.Engine.Commands() {
			if c.Value != tagT0 || c.Cycle < req.StartCycle || c.Cycle >= req.EndCycle {
				continue
			}
			if prev != 0 {
				gaps = append(gaps, c.Cycle-prev)
			}
			prev = c.Cycle
			count++
		}
		p.Close()
		var worst uint64
		for _, g := range gaps {
			if g > worst {
				worst = g
			}
		}
		elapsed := float64(req.EndCycle-req.StartCycle) / machine.ClockHz * 1000
		rate := float64(count) / (float64(req.EndCycle-req.StartCycle) / machine.ClockHz) / 1000
		label := fmt.Sprint(q)
		if q == 1<<40 {
			label = "unbounded"
		}
		t.AddRow(label, fmt.Sprintf("%.1f", elapsed), worst, fmt.Sprintf("%.2f kHz", rate))
	}
	t.Note("small quanta bound jitter; the unbounded row is the atomic ablation")
	return t, nil
}

// AblationInterruptFlood measures availability under a network
// interrupt flood — the §5 DoS discussion made quantitative. Frames
// arrive every interval cycles; each one costs the full secure
// interrupt path. The control task's achieved rate shows the graceful
// (bounded-per-interrupt) degradation.
func AblationInterruptFlood() (Table, error) {
	t := Table{
		Title:  "Ablation: availability under a network interrupt flood (§5 DoS)",
		Header: []string{"Frame interval (cycles)", "IRQs/s", "t0 rate", "t0 rate vs quiet"},
	}
	var quiet float64
	for _, interval := range []uint64{0, 8_000, 2_000, 500} {
		p := mustPlatform(core.Options{EngineHistory: 1 << 16})
		t0 := UseCaseTaskImage(tagT0, useCasePeriod)
		if _, _, err := p.LoadTaskSync(t0, core.Secure, 5); err != nil {
			return Table{}, err
		}
		if interval > 0 {
			p.NIC.Write(machine.NICRegRate, uint32(interval))
		}
		start := p.Cycles()
		if err := p.Run(64 * core.DefaultTickPeriod); err != nil {
			return Table{}, err
		}
		elapsed := p.Cycles() - start
		count := 0
		for _, c := range p.Engine.Commands() {
			if c.Value == tagT0 && c.Cycle >= start {
				count++
			}
		}
		p.Close()
		rate := float64(count) / (float64(elapsed) / machine.ClockHz) / 1000
		if interval == 0 {
			quiet = rate
		}
		irqPerSec := 0
		if interval > 0 {
			irqPerSec = int(machine.ClockHz / interval)
		}
		rel := "100 %"
		if quiet > 0 {
			rel = fmt.Sprintf("%.0f %%", rate/quiet*100)
		}
		label := "quiet"
		if interval > 0 {
			label = fmt.Sprint(interval)
		}
		t.AddRow(label, irqPerSec, fmt.Sprintf("%.2f kHz", rate), rel)
	}
	t.Note("each frame costs one bounded interrupt path (%d + %d cycles plus dispatch); throughput holds until the aggregate interrupt load saturates the CPU, then collapses — §5's point that no general DoS defence exists",
		machine.CostHWException, 95)
	return t, nil
}

// AblationSecureVsNormal compares the full per-task lifecycle cost of
// secure and normal tasks, summarizing what the TyTAN guarantees cost.
func AblationSecureVsNormal() (Table, error) {
	r, err := MeasureCreation()
	if err != nil {
		return Table{}, err
	}
	cs, err := MeasureContextSwitch()
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Ablation: lifetime cost of a secure vs a normal task (cycles)",
		Header: []string{"Operation", "Normal", "Secure", "Factor"},
	}
	factor := func(a, b uint64) string { return fmt.Sprintf("%.2fx", float64(b)/float64(a)) }
	t.AddRow("creation", r.Normal.Total(), r.Secure.Total(), factor(r.Normal.Total(), r.Secure.Total()))
	t.AddRow("interrupt save", cs.SaveBaseline, cs.SaveTyTAN, factor(cs.SaveBaseline, cs.SaveTyTAN))
	t.AddRow("context restore", cs.RestoreBaseline, cs.RestoreTyTAN, factor(cs.RestoreBaseline, cs.RestoreTyTAN))
	t.Note("creation is dominated by the one-time RTM measurement; steady-state overhead is the interrupt path only")
	return t, nil
}

// AblationAllocatorStrategy compares first-fit (the platform default,
// FreeRTOS-style) with best-fit placement under task churn: after a
// randomized load/unload trace, how much of the pool is still usable as
// one contiguous task region?
func AblationAllocatorStrategy() (Table, error) {
	t := Table{
		Title:  "Ablation: first-fit vs best-fit task placement under churn",
		Header: []string{"Strategy", "Free bytes", "Largest hole", "Fragments", "Mean scan length"},
	}
	for _, strat := range []loader.Strategy{loader.FirstFit, loader.BestFit} {
		alloc, err := loader.NewAllocator(0x10_0000, 1<<20)
		if err != nil {
			return Table{}, err
		}
		alloc.SetStrategy(strat)
		// Deterministic churn trace: sizes mimic task images (hundreds
		// of bytes to tens of KiB).
		seed := uint32(0xC0FFEE)
		rnd := func(n uint32) uint32 { seed = seed*1664525 + 1013904223; return seed % n }
		var live []uint32
		scans, allocs := 0, 0
		for op := 0; op < 4000; op++ {
			if rnd(5) < 2 && len(live) > 0 {
				i := int(rnd(uint32(len(live))))
				alloc.Free(live[i])
				live = append(live[:i], live[i+1:]...)
				continue
			}
			size := 256 + rnd(24<<10)
			addr, scanned, err := alloc.Alloc(size)
			if err != nil {
				continue
			}
			scans += scanned
			allocs++
			live = append(live, addr)
		}
		name := "first fit (TyTAN)"
		if strat == loader.BestFit {
			name = "best fit"
		}
		t.AddRow(name, alloc.FreeBytes(), alloc.LargestHole(), alloc.Fragments(),
			fmt.Sprintf("%.1f", float64(scans)/float64(allocs)))
	}
	t.Note("identical 4,000-operation churn trace for both strategies; larger largest-hole = more usable pool")
	return t, nil
}

// TableInterruptLatency reports the interrupt-service latency under
// the use-case workload — evidence for the §4 real-time requirement of
// "bounded execution time for primitives": the worst observed latency
// must stay a small fraction of a scheduling period regardless of what
// the platform is doing (idle, serving tasks, loading).
func TableInterruptLatency() (Table, error) {
	t := Table{
		Title:  "Interrupt-service latency (cycles, timer IRQ under the use-case load)",
		Header: []string{"Configuration", "Samples", "Mean", "Max", "Max vs period"},
	}
	for _, baseline := range []bool{false, true} {
		opt := core.Options{EngineHistory: 1 << 16, Baseline: baseline}
		p := mustPlatform(opt)
		t0 := UseCaseTaskImage(tagT0, useCasePeriod)
		kind := core.Secure
		if baseline {
			kind = core.Normal
		}
		if _, _, err := p.LoadTaskSync(t0, kind, 5); err != nil {
			return Table{}, err
		}
		// Exercise idle, busy and loading phases.
		if err := p.Run(32 * core.DefaultTickPeriod); err != nil {
			return Table{}, err
		}
		req := p.LoadTaskAsync(UseCaseT2Image(tagT2, useCasePeriod), kind, 4)
		for !req.Done() && p.Cycles() < 400*core.DefaultTickPeriod {
			if err := p.Run(core.DefaultTickPeriod); err != nil {
				return Table{}, err
			}
		}
		if !req.Done() || req.Err() != nil {
			return Table{}, fmt.Errorf("benchlab: latency load (baseline %v) failed: %w", baseline, req.Err())
		}
		max, mean, n := p.K.IRQLatency()
		p.Close()
		name := "TyTAN"
		if baseline {
			name = "baseline FreeRTOS"
		}
		t.AddRow(name, n, fmt.Sprintf("%.0f", mean), max,
			fmt.Sprintf("%.1f %%", float64(max)/float64(core.DefaultTickPeriod)*100))
	}
	t.Note("latency = line assertion to handler completion, including the context save path")
	return t, nil
}

// AllAblations runs every ablation.
func AllAblations() ([]Table, error) {
	fns := []func() (Table, error){
		AblationAtomicMeasurement,
		AblationHardwareContextSave,
		AblationStaticMPU,
		AblationIdentityWidth,
		AblationMailboxDepth,
		AblationLoaderQuantum,
		AblationInterruptFlood,
		AblationAllocatorStrategy,
		AblationSecureVsNormal,
	}
	var out []Table
	for _, fn := range fns {
		tb, err := fn()
		if err != nil {
			return nil, err
		}
		out = append(out, tb)
	}
	return out, nil
}

// AllTables runs every paper table and figure reproduction.
func AllTables() ([]Table, error) {
	var out []Table
	t1, err := Table1UseCase()
	if err != nil {
		return nil, err
	}
	out = append(out, t1)
	for _, fn := range []func() (Table, error){
		Table2ContextSave, Table3ContextRestore, Table4TaskCreation,
		Table5Relocation, Table6EAMPUConfig, Table7Measurement,
	} {
		tb, err := fn()
		if err != nil {
			return nil, err
		}
		out = append(out, tb)
	}
	out = append(out, Table8Memory())
	ipc, err := TableIPC()
	if err != nil {
		return nil, err
	}
	out = append(out, ipc)
	lat, err := TableInterruptLatency()
	if err != nil {
		return nil, err
	}
	out = append(out, lat)
	scale, err := TableCreationScaling()
	if err != nil {
		return nil, err
	}
	out = append(out, scale)
	ipcScale, err := TableIPCScaling()
	if err != nil {
		return nil, err
	}
	out = append(out, ipcScale)
	return out, nil
}
