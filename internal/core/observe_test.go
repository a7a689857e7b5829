package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/contract"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/trusted"
)

// supervisedScenario runs a fixed supervised workload — a crashing
// task burning its restart budget beside a clean exiter — and returns
// the platform. setup runs on the fresh platform first.
func supervisedScenario(t *testing.T, setup func(*Platform)) *Platform {
	t.Helper()
	p := newTyTAN(t)
	setup(p)
	if _, err := p.EnableSupervision(trusted.SupervisorPolicy{
		MaxRestarts:  2,
		RestartDelay: 10_000,
	}); err != nil {
		t.Fatal(err)
	}
	crashy, _, err := p.LoadTaskSync(mustImage(t, crashySrc), Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Watch(crashy.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.LoadTaskSync(mustImage(t, helloSrc), Secure, 3); err != nil {
		t.Fatal(err)
	}
	quarantined := func() bool {
		st, ok := p.Sup.Status("crashy")
		return ok && st.State == trusted.WatchQuarantined
	}
	if !runUntil(t, p, 20_000_000, quarantined) {
		t.Fatalf("crashy never quarantined; events %+v", p.Sup.Events())
	}
	return p
}

// observedScenario is the supervised workload with the observability
// layer on from boot when observe is set.
func observedScenario(t *testing.T, observe bool) *Platform {
	t.Helper()
	return supervisedScenario(t, func(p *Platform) {
		if observe {
			p.EnableObservability()
		}
	})
}

// TestObservabilityZeroImpact: the same workload with and without the
// observability layer lands on the identical cycle count, dispatch
// count and machine stats — emission is a pure lens over the
// simulation.
func TestObservabilityZeroImpact(t *testing.T) {
	contract.Check(t, contract.Row{Name: "supervised-scenario", Axes: []contract.Axis{contract.Toggle("observe")}, Produce: func(t *testing.T, at contract.Point) []byte {
		p := observedScenario(t, at.On("observe"))
		defer p.Close()
		return fmt.Appendf(nil, "cycles %d switches %d stats %+v\n", p.Cycles(), p.K.Switches(), p.M.Stats())
	}})
}

// monitoredScenario is observedScenario with a live SLO monitor wired
// in as an extra sink, emitting violation events back into the buffer.
func monitoredScenario(t *testing.T, spec *analyze.Spec) (*Platform, *analyze.Monitor) {
	t.Helper()
	monitor := analyze.NewMonitor(spec, nil)
	p := supervisedScenario(t, func(p *Platform) { monitor.SetOutput(p.EnableObservability(monitor).Buf) })
	return p, monitor
}

// TestMonitorZeroImpact: an attached — and actively firing — SLO
// monitor must not move a single simulated cycle, and the event stream
// must be identical to an unmonitored run once the injected violation
// events are filtered out. This is the acceptance contract: analysis is
// a pure lens.
func TestMonitorZeroImpact(t *testing.T) {
	// A bound of 1 cycle is violated by every IRQ span, so the online
	// path fires (the hardest case for the zero-impact contract).
	spec, err := analyze.ParseSpecString("irq_latency max <= 1c\ndeadline_miss == 0\n")
	if err != nil {
		t.Fatal(err)
	}

	plain := observedScenario(t, false)
	defer plain.Close()
	observed := observedScenario(t, true)
	defer observed.Close()
	monitored, monitor := monitoredScenario(t, spec)
	defer monitored.Close()

	if plain.Cycles() != monitored.Cycles() {
		t.Errorf("cycle counts diverged: plain %d, monitored %d", plain.Cycles(), monitored.Cycles())
	}
	if a, b := plain.K.Switches(), monitored.K.Switches(); a != b {
		t.Errorf("dispatch counts diverged: %d != %d", a, b)
	}
	if a, b := plain.M.Stats(), monitored.M.Stats(); a != b {
		t.Errorf("machine stats diverged: %+v != %+v", a, b)
	}

	// The monitor must actually have fired (otherwise this test proves
	// nothing) — exactly once per rule, injected into the buffer.
	if n := monitor.Violations(); n != 1 {
		t.Fatalf("monitor violations = %d, want 1 (irq rule only)", n)
	}
	var injected, rest []trace.Event
	for _, e := range monitored.Observability().Events() {
		if e.Kind == trace.KindSLOViolation {
			injected = append(injected, e)
		} else {
			rest = append(rest, e)
		}
	}
	if len(injected) != 1 {
		t.Errorf("injected violation events = %d, want 1", len(injected))
	}
	if !reflect.DeepEqual(rest, observed.Observability().Events()) {
		t.Errorf("monitored stream (minus violations) diverged from observed stream: %d vs %d events",
			len(rest), len(observed.Observability().Events()))
	}
}

// TestEventStreamDeterminism: the scenario emits the same cycle-ordered
// event stream on every run and on both engines.
func TestEventStreamDeterminism(t *testing.T) {
	contract.Check(t, contract.Row{Name: "supervised-events", Axes: []contract.Axis{contract.Engine}, Produce: func(t *testing.T, _ contract.Point) []byte {
		p := observedScenario(t, true)
		defer p.Close()
		events := p.Observability().Events()
		if len(events) == 0 {
			t.Fatal("no events emitted")
		}
		var out []byte
		for i, e := range events {
			if i > 0 && e.Cycle < events[i-1].Cycle {
				t.Fatalf("event %d out of order: cycle %d after %d", i, e.Cycle, events[i-1].Cycle)
			}
			out = append(out, e.String()+"\n"...)
		}
		return out
	}})
}

// TestObservedMetrics: the Prometheus text of the observed scenario,
// gauges and event-fed histograms alike, is pinned for each engine. The
// gauges carry the engine's own counters (decode misses, span fills),
// so the row renders both engines' text one after the other instead of
// asserting they are equal.
func TestObservedMetrics(t *testing.T) {
	contract.Check(t, contract.Row{Name: "observed-metrics", Produce: func(t *testing.T, _ contract.Point) []byte {
		prev := machine.FastPathDefault
		defer func() { machine.FastPathDefault = prev }()
		var out bytes.Buffer
		for _, fast := range []bool{true, false} {
			machine.FastPathDefault = fast
			p := observedScenario(t, true)
			fmt.Fprintf(&out, "# fast path %v\n", fast)
			if err := p.Observability().WriteMetrics(&out); err != nil {
				t.Fatal(err)
			}
			p.Close()
		}
		return out.Bytes()
	}})
}

// TestMetricsUnderSupervision: the exported metrics agree with the
// supervisor's audit trail across restart and quarantine, and the
// denial counter moves when a quarantined identity is quoted.
func TestMetricsUnderSupervision(t *testing.T) {
	p := observedScenario(t, true)
	defer p.Close()
	obs := p.Observability()

	scrape := func() map[string]float64 {
		var buf bytes.Buffer
		if err := obs.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		m, err := trace.ScrapePrometheus(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("metrics do not scrape: %v\n%s", err, buf.String())
		}
		return m.Samples
	}
	m := scrape()
	// crashy faults three times (original + 2 restarts), restarts
	// twice, quarantines once; hello ends cleanly.
	checks := map[string]float64{
		"tytan_sup_faults":      3,
		"tytan_sup_restarts":    2,
		"tytan_sup_quarantines": 1,
	}
	for name, want := range checks {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if m["tytan_kernel_switches"] == 0 || m["tytan_machine_insn_retired"] == 0 {
		t.Error("kernel/machine gauges not populated")
	}
	if m["tytan_eampu_violations"] < 3 {
		t.Errorf("tytan_eampu_violations = %v, want ≥3", m["tytan_eampu_violations"])
	}

	// A quote of the quarantined identity is denied and counted.
	st, _ := p.Sup.Status("crashy")
	deniedBefore := m["tytan_attest_denials"]
	if _, err := p.Provider("").Quote(st.TaskID, 1); err == nil {
		t.Fatal("quote of quarantined task succeeded")
	}
	if got := scrape()["tytan_attest_denials"]; got != deniedBefore+1 {
		t.Errorf("tytan_attest_denials = %v, want %v", got, deniedBefore+1)
	}

	// The supervisor counters match the audit-trail event counts.
	counts := p.Sup.Counts()
	if int(counts.Faults) != countEvents(p.Sup, "fault") {
		t.Errorf("SupCounts.Faults = %d, events = %d", counts.Faults, countEvents(p.Sup, "fault"))
	}
	if int(counts.Restarts) != countEvents(p.Sup, "restart") {
		t.Errorf("SupCounts.Restarts = %d, events = %d", counts.Restarts, countEvents(p.Sup, "restart"))
	}
}

// TestObsExportRoundTrips: the Chrome trace export decodes back to the
// exact event stream, and the profile attributes cycles to the tasks
// and load phases the scenario actually exercised.
func TestObsExportRoundTrips(t *testing.T) {
	p := observedScenario(t, true)
	defer p.Close()
	obs := p.Observability()

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.ReadTraceEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	if !reflect.DeepEqual(decoded, obs.Events()) {
		t.Fatalf("Chrome round-trip lost information: %d vs %d events", len(decoded), len(obs.Events()))
	}

	prof := obs.Profile()
	if prof.TotalCycles != p.Cycles() {
		t.Errorf("profile total = %d, want %d", prof.TotalCycles, p.Cycles())
	}
	var sawCrashy bool
	for _, tc := range prof.Tasks {
		if tc.Name == "crashy" && tc.Cycles > 0 {
			sawCrashy = true
		}
	}
	if !sawCrashy {
		t.Error("profile attributes no cycles to crashy")
	}
	if len(prof.LoadPhases) == 0 {
		t.Error("profile has no load-phase breakdown")
	}
	if !strings.Contains(prof.String(), "crashy") {
		t.Error("profile report does not mention crashy")
	}
}

// TestProfileInvariants: the profile accounts for every cycle the
// event stream can attribute. The task rows cover the run from the
// first dispatch to the platform's cycle count, one dispatch per task
// switch, and the load-phase rows add up to the work the completed
// loads report.
func TestProfileInvariants(t *testing.T) {
	p := observedScenario(t, true)
	defer p.Close()
	obs := p.Observability()
	prof := obs.Profile()

	var switches int
	var firstDispatch, loadWork uint64
	for _, e := range obs.Events() {
		switch e.Kind {
		case trace.KindTaskSwitch:
			if switches == 0 {
				firstDispatch = e.Cycle
			}
			switches++
		case trace.KindLoadPhase:
			if ph, _ := e.Attr("phase"); ph.Str == "done" {
				total, _ := e.NumAttr("total")
				loadWork += total
			}
		}
	}
	if switches == 0 || loadWork == 0 {
		t.Fatalf("scenario has %d task switches and %d load cycles", switches, loadWork)
	}

	var taskCycles uint64
	var dispatches int
	for _, tc := range prof.Tasks {
		taskCycles += tc.Cycles
		dispatches += tc.Dispatches
	}
	if want := prof.TotalCycles - firstDispatch; taskCycles != want {
		t.Errorf("task cycles = %d, want TotalCycles %d - first dispatch %d = %d",
			taskCycles, prof.TotalCycles, firstDispatch, want)
	}
	if dispatches != switches {
		t.Errorf("dispatches = %d, want %d task switches", dispatches, switches)
	}
	var phaseCycles uint64
	for _, ph := range prof.LoadPhases {
		phaseCycles += ph.Cycles
	}
	if phaseCycles != loadWork {
		t.Errorf("load-phase cycles = %d, want the done events' total %d", phaseCycles, loadWork)
	}
}

// TestProviderHandle: the provider-scoped handle quotes and verifies
// end to end, the empty name selects the platform default, and the
// deprecated wrappers still agree with it.
func TestProviderHandle(t *testing.T) {
	p, err := NewPlatform(Options{Provider: "oem"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tcb, identity, err := p.LoadTaskSync(mustImage(t, helloSrc), Secure, 3)
	if err != nil {
		t.Fatal(err)
	}

	oem := p.Provider("oem")
	if oem.Name() != "oem" {
		t.Errorf("Name() = %q", oem.Name())
	}
	q, err := oem.Quote(tcb.ID, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := oem.Verifier().Verify(q, identity, 42); err != nil {
		t.Errorf("handle verifier rejects handle quote: %v", err)
	}

	// Empty name = platform default.
	def := p.Provider("")
	if def.Name() != "oem" {
		t.Errorf("default handle name = %q, want oem", def.Name())
	}
	qd, err := def.Quote(tcb.ID, 42)
	if err != nil {
		t.Fatal(err)
	}
	if qd.MAC != q.MAC {
		t.Error("default-provider quote differs from named-provider quote")
	}
	if err := def.Verifier().Verify(q, identity, 42); err != nil {
		t.Errorf("default verifier rejects named-provider quote: %v", err)
	}

	// A distinct provider derives a distinct key.
	other, err := p.Provider("vendor-b").Quote(tcb.ID, 42)
	if err != nil {
		t.Fatal(err)
	}
	if other.MAC == q.MAC {
		t.Error("distinct providers produced the same MAC")
	}
	if err := p.Provider("vendor-b").Verifier().Verify(other, identity, 42); err != nil {
		t.Errorf("vendor-b verifier rejects vendor-b quote: %v", err)
	}

	// Baseline platforms refuse quotes but still hand out verifiers.
	bp, err := NewPlatform(Options{Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Close()
	if _, err := bp.Provider("oem").Quote(1, 1); !errors.Is(err, ErrBaselineOnly) {
		t.Errorf("baseline quote = %v, want ErrBaselineOnly", err)
	}
	if bp.Provider("oem").Verifier() == nil {
		t.Error("baseline verifier is nil")
	}
}
