package core

import (
	"io"

	"repro/internal/analyze"
	"repro/internal/trace"
	"repro/internal/trusted"
)

// Observability wiring: EnableObservability turns on the platform-wide
// lens — typed events from every subsystem collected into one buffer —
// and the exporters over it (Chrome trace, Prometheus text,
// cycle-attribution profile).
//
// The lens is pure: emission never charges simulated cycles, metrics
// are built at export time (gauges read the counters, histograms replay
// the buffer), and with observability off every emission site is a
// single nil check — the paper's cycle numbers are identical either
// way.

// Obs is the platform's observability handle.
type Obs struct {
	// Buf collects every typed event in emission order.
	Buf *trace.Buffer

	p *Platform
}

// irqLatencyBounds buckets interrupt-entry latency in cycles.
var irqLatencyBounds = []uint64{8, 16, 32, 64, 128, 256, 512, 1024}

// loadTotalBounds buckets whole-load latency in cycles, request to
// schedulable (Table 4's overall work spans roughly 100k–3M cycles
// across image sizes; an interruptible load's elapsed window is
// longer).
var loadTotalBounds = []uint64{50_000, 100_000, 250_000, 500_000, 1_000_000, 2_000_000, 4_000_000}

// attestRTTBounds buckets attestation round-trips in cycles (a quote
// is dominated by the HMAC over the task region, §5).
var attestRTTBounds = []uint64{10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000}

// EnableObservability installs the platform's one event sink,
// Machine.Obs, which every subsystem emits through, and returns the
// handle. Extra sinks (a live printer, a test recorder) see the same
// stream as the buffer. Idempotent: a second call returns the same
// handle and ignores extras. There is no way to disable it again on a
// live platform — build a fresh platform for uninstrumented
// measurement.
func (p *Platform) EnableObservability(extra ...trace.Sink) *Obs {
	if p.obsHandle != nil {
		return p.obsHandle
	}
	o := &Obs{Buf: new(trace.Buffer), p: p}
	p.M.Obs = o.Buf
	if len(extra) > 0 {
		p.M.Obs = trace.Multi(append([]trace.Sink{o.Buf}, extra...)...)
	}
	p.obsHandle = o
	return o
}

// Sink returns the installed sink — the one every subsystem emits
// through. External components attached to the platform (a
// remote-attestation server, a fleet harness) emit through it so their
// events land in the buffer and every extra sink alike.
func (o *Obs) Sink() trace.Sink { return o.p.M.Obs }

// metrics builds the platform registry: the three event-fed histograms,
// filled by replaying the buffer through analyze.Sample, then every
// subsystem's counters as gauges.
func (o *Obs) metrics() *trace.Registry {
	r := trace.NewRegistry()
	irqLatency := r.Histogram("tytan_irq_latency_cycles",
		"Interrupt entry latency per serviced interrupt.", irqLatencyBounds...)
	loadTotal := r.Histogram("tytan_load_total_cycles",
		"Dynamic load latency, request to schedulable.", loadTotalBounds...)
	attestRTT := r.Histogram("tytan_attest_rtt_cycles",
		"Attestation round-trip time, request to verified reply.", attestRTTBounds...)
	for _, e := range o.Buf.Events() {
		class, cycles, ok := analyze.Sample(e)
		if !ok {
			continue
		}
		switch class {
		case analyze.ClassIRQ, analyze.ClassTick:
			irqLatency.Observe(cycles)
		case analyze.ClassLoad:
			loadTotal.Observe(cycles)
		case analyze.ClassAttest:
			attestRTT.Observe(cycles)
		}
	}
	o.registerGauges(r)
	return r
}

// registerGauges exposes every subsystem's monotonic counters as
// gauges holding the counts read at export.
func (o *Obs) registerGauges(r *trace.Registry) {
	p := o.p

	r.Gauge("tytan_cycles", "Platform cycle counter.", p.M.Cycles())

	// Machine / interpreter fast path.
	st := p.M.Stats()
	r.Gauge("tytan_machine_insn_retired", "Instructions retired.", st.InsnRetired)
	r.Gauge("tytan_machine_decode_misses", "Instruction-cache decode misses.", st.DecodeMisses)
	r.Gauge("tytan_machine_exec_span_fills", "EA-MPU execute-span cache fills.", st.ExecSpanFills)
	r.Gauge("tytan_machine_data_span_fills", "EA-MPU data-span cache fills.", st.DataSpanFills)
	r.Gauge("tytan_machine_gen_bumps", "EA-MPU generation bumps (cache invalidations).", st.GenBumps)

	// Superblock engine.
	r.Gauge("tytan_machine_sb_compiles", "Superblocks compiled (incl. recompiles).", st.SBCompiles)
	r.Gauge("tytan_machine_sb_hits", "Superblock cache hits (blocks dispatched).", st.SBHits)
	r.Gauge("tytan_machine_sb_bails", "Superblock mid-block bails to the interpreter.", st.SBBails)
	r.Gauge("tytan_machine_sb_fallbacks", "Superblock dispatches declined (guards).", st.SBFallbacks)
	r.Gauge("tytan_machine_sb_invalidations", "Superblock invalidations from code writes.", st.SBInvalidations)

	// Kernel.
	r.Gauge("tytan_kernel_ticks", "Timer ticks serviced.", p.K.Ticks())
	r.Gauge("tytan_kernel_switches", "Context switches (dispatches).", p.K.Switches())
	r.Gauge("tytan_kernel_preemptions", "Preemptive task switches.", p.K.Preempted())
	r.Gauge("tytan_kernel_idle_cycles", "Cycles spent with no runnable task.", p.K.IdleCycles())
	r.Gauge("tytan_kernel_deadline_misses", "Missed periodic-deadline windows.", p.K.DeadlineMisses())

	// EA-MPU.
	r.Gauge("tytan_eampu_violations", "Access-control violations raised.", p.M.MPU.Violations())
	r.Gauge("tytan_eampu_generation", "EA-MPU configuration generation.", p.M.MPU.Generation())
	r.Gauge("tytan_eampu_slots_used", "EA-MPU region slots in use.", uint64(p.M.MPU.UsedSlots()))

	// Trusted components (TyTAN configuration only).
	if p.C != nil {
		issued, denied := p.C.Attest.QuoteCounts()
		r.Gauge("tytan_attest_quotes", "Attestation quotes issued.", issued)
		r.Gauge("tytan_attest_denials", "Attestation quote requests denied.", denied)
	}

	// Supervisor counters read through the platform so enabling
	// supervision after observability still reports.
	sup := p.supCounts()
	r.Gauge("tytan_sup_faults", "Task faults seen by the supervisor.", sup.Faults)
	r.Gauge("tytan_sup_restarts", "Supervisor restarts issued.", sup.Restarts)
	r.Gauge("tytan_sup_restart_failures", "Supervisor restarts that failed.", sup.RestartFailures)
	r.Gauge("tytan_sup_quarantines", "Task identities quarantined.", sup.Quarantines)

	// Secure update decisions, read through the platform so enabling the
	// update service after observability still reports.
	up := p.updateCounts()
	r.Gauge("tytan_update_accepted", "Secure updates accepted and committed.", up.Accepted)
	r.Gauge("tytan_update_denied", "Secure updates refused before any state change.", up.Denied)
	r.Gauge("tytan_update_rolled_back", "Secure updates unwound after a mid-swap fault.", up.RolledBack)
}

// supCounts reads the supervisor counters, zero when supervision is
// not enabled.
func (p *Platform) supCounts() trusted.SupCounts {
	if p.Sup == nil {
		return trusted.SupCounts{}
	}
	return p.Sup.Counts()
}

// updateCounts reads the update-service counters, zero when the service
// is not enabled.
func (p *Platform) updateCounts() trusted.UpdateCounts {
	if p.updater == nil {
		return trusted.UpdateCounts{}
	}
	return p.updater.Counts()
}

// Events returns a copy of the collected event stream.
func (o *Obs) Events() []trace.Event { return o.Buf.Events() }

// WriteChromeTrace exports the event stream in Chrome trace_event JSON
// (load into chrome://tracing or Perfetto; 1 µs displayed = 1 cycle).
func (o *Obs) WriteChromeTrace(w io.Writer) error {
	return trace.WriteChromeTrace(w, trace.Lane{Events: o.Buf.Events()})
}

// WriteMetrics builds the platform metrics from the counters and the
// buffered events and exports them in Prometheus text format.
func (o *Obs) WriteMetrics(w io.Writer) error {
	return o.metrics().WritePrometheus(w)
}

// Profile attributes the simulation's cycles to tasks and load phases
// from the event stream.
func (o *Obs) Profile() *analyze.Profile {
	return analyze.Analyze(o.Buf.Events()).Profile(o.p.M.Cycles())
}
