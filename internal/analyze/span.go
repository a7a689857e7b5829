// Package analyze is the trace-analysis layer: it turns the raw typed
// event stream of internal/trace into verdicts. A deterministic span
// engine pairs start/end events into typed spans (interrupt service
// windows, load-pipeline phases, attestation round-trips, IPC
// deliveries, task activation windows); latency reports aggregate the
// spans into per-class percentile tables; the cycle-attribution
// profile (profile.go) sums the task windows and load breakdowns; and a
// small declarative SLO language (slo.go) evaluates bounds over them —
// online as a trace.Sink while the simulation runs, or offline over an
// exported Chrome trace. It is the only place cycles are attributed:
// Sample is the one rule that reads a span duration off a single event.
//
// The whole layer is pure: it reads events and produces values, never
// touching simulated state or charging cycles, so the paper's cycle
// metrics are byte-identical with analysis attached or detached — the
// same zero-impact contract the trace package keeps.
package analyze

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Span classes, as reported in latency tables and SLO metrics.
const (
	ClassIRQ    = "irq"    // non-timer interrupt: line raise → handler exit
	ClassTick   = "tick"   // timer interrupt: fire → handler exit
	ClassLoad   = "load"   // dynamic load: request start → schedulable
	ClassAttest = "attest" // attestation round-trip: request → verified reply
	ClassIPC    = "ipc"    // secure IPC: proxy send → receiver dispatched
	ClassTask   = "task"   // task activation window: dispatch → next dispatch

	// ClassSession is a device-initiated attestation session seen from
	// the device side only: hello → verdict/refusal/error, in device
	// cycles (KindSession events).
	ClassSession = "session"
	// ClassFleetE2E is a cross-domain session: the same device-side
	// hello → close window, but upgraded from ClassSession because the
	// stream also carries the verifier plane's KindFleet decision for
	// the same (device, session-ordinal) correlation key — evidence the
	// session completed end to end across both time domains. The span's
	// subject is the session key ("dev-0042#3").
	ClassFleetE2E = "fleet_e2e"
)

// loadPhaseClass prefixes per-phase load sub-spans ("load/stream").
const loadPhaseClass = "load/"

// Span is one reconstructed interval of the simulated timeline.
type Span struct {
	// Class groups spans for aggregation (see the Class constants;
	// load-pipeline sub-spans use "load/<phase>").
	Class string
	// Subject names what the span is about (task, image, provider).
	Subject string
	// Start and End are the bounding cycles (End >= Start).
	Start, End uint64
	// Unclosed marks a span whose end event never arrived (truncated
	// trace, still-running operation). End holds the last cycle the
	// trace covers; unclosed spans are reported, never dropped.
	Unclosed bool
}

// Duration returns the span length in cycles.
func (s Span) Duration() uint64 { return s.End - s.Start }

// Analysis is the result of running the span engine over a trace.
type Analysis struct {
	// Events is the analyzed stream, in input order.
	Events []trace.Event
	// Spans holds every reconstructed span, ordered by (Start, Class,
	// Subject) so reports are deterministic.
	Spans []Span
	// LastCycle is the highest cycle stamp in the stream (the window
	// unclosed spans are cut at).
	LastCycle uint64
	// DeadlineMisses counts KindDeadlineMiss events.
	DeadlineMisses int
	// Violations counts KindViolation (EA-MPU) events.
	Violations int
	// SLOViolations counts KindSLOViolation events already present in
	// the stream (a prior online monitor's verdicts).
	SLOViolations int
	// Bursts aggregates KindTaskBurst events per task: the measured
	// trap-to-trap execution segments the static verifier's worst-case
	// burst bound must dominate. Nil when the stream has none.
	Bursts map[string]BurstStats

	// lastTask is the stream's final task window, cut at the last event
	// (Profile runs it on to the platform's cycle count).
	lastTask Span
}

// BurstStats aggregates the measured execution bursts of one task.
type BurstStats struct {
	Count int    // closed bursts observed
	Max   uint64 // worst measured burst, in cycles
	Sum   uint64 // total cycles across all bursts
}

// BoundsViolation reports one task whose measured worst burst exceeded
// its static worst-case bound — evidence the bound certificate (or the
// cost model under it) is wrong, since the static side must dominate.
type BoundsViolation struct {
	Subject  string `json:"subject"`
	Measured uint64 `json:"measured"` // worst observed burst, cycles
	Bound    uint64 `json:"bound"`    // static worst-case bound, cycles
}

// CrossCheckBounds compares each task's worst measured burst against
// its static worst-case burst bound and returns the violations, sorted
// by subject. bounds maps task names to certified cycle bounds (e.g.
// from trusted.RegistryEntry.Bounds); tasks without an entry — or whose
// bound is not certified — are skipped, never reported.
func (a *Analysis) CrossCheckBounds(bounds map[string]uint64) []BoundsViolation {
	names := make([]string, 0, len(a.Bursts))
	for n := range a.Bursts {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []BoundsViolation
	for _, n := range names {
		bound, ok := bounds[n]
		if !ok {
			continue
		}
		if st := a.Bursts[n]; st.Max > bound {
			out = append(out, BoundsViolation{Subject: n, Measured: st.Max, Bound: bound})
		}
	}
	return out
}

// Unclosed returns the unclosed spans.
func (a *Analysis) Unclosed() []Span {
	var out []Span
	for _, s := range a.Spans {
		if s.Unclosed {
			out = append(out, s)
		}
	}
	return out
}

// Durations returns the sorted durations of every *closed* span whose
// class is one of the given classes.
func (a *Analysis) Durations(classes ...string) []uint64 {
	var out []uint64
	for _, s := range a.Spans {
		if !s.Unclosed && slices.Contains(classes, s.Class) {
			out = append(out, s.Duration())
		}
	}
	slices.Sort(out)
	return out
}

// Classes returns the distinct span classes present, sorted.
func (a *Analysis) Classes() []string {
	seen := make(map[string]bool)
	for _, s := range a.Spans {
		seen[s.Class] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Sample is the one rule that turns a single event into a span
// duration, for the classes whose closing event carries its own length:
//
//	irq, tick  the kernel's interrupt event, "latency" (raise → exit)
//	attest     a SubRemote attest reply, "rtt" (request → reply)
//	load       a load's "done" event, "latency" (first phase event →
//	           schedulable, the same window the offline load span covers)
//	session    a KindSession close, "e2e" (hello → verdict, refusal or
//	           error; Analyze files the span as fleet_e2e instead when
//	           the stream also holds the plane's decision)
//
// class is set for every event of those kinds and ok only when the
// event carries the duration: an attest request and a session hello do
// not. A failed load closes its load span offline but carries no
// latency attribute, so it is no sample; online consumers (Monitor, the
// platform's histograms) see completed loads only.
func Sample(e trace.Event) (class string, cycles uint64, ok bool) {
	key := "latency"
	switch e.Kind {
	case trace.KindIRQ:
		class = ClassIRQ
	case trace.KindTick:
		class = ClassTick
	case trace.KindAttest:
		if e.Sub != trace.SubRemote {
			return "", 0, false
		}
		class, key = ClassAttest, "rtt"
	case trace.KindSession:
		class, key = ClassSession, "e2e"
	case trace.KindLoadPhase:
		if ph, _ := e.Attr("phase"); ph.Str != "done" {
			return "", 0, false
		}
		class = ClassLoad
	default:
		return "", 0, false
	}
	cycles, ok = e.NumAttr(key)
	return class, cycles, ok
}

// openSpan tracks a span whose end event has not arrived yet.
type openSpan struct {
	class   string
	subject string
	start   uint64
}

// Analyze runs the span engine over an event stream (emission order, as
// produced by trace.Buffer or trace.ReadTraceEvents). It is tolerant of
// truncated traces: whatever is still open when the stream ends is
// reported as an unclosed span cut at the last observed cycle.
func Analyze(events []trace.Event) *Analysis {
	a := &Analysis{Events: events}

	// Pre-scan: the last cycle, a span count to size Spans by (one per
	// event of a span-closing kind), and the plane-side session keys: a
	// device-side session span whose key the verifier plane also ruled
	// on is cross-domain (ClassFleetE2E); one without plane evidence
	// stays ClassSession.
	var closers int
	planeKeys := make(map[string]bool)
	for _, e := range events {
		a.LastCycle = max(a.LastCycle, e.Cycle)
		switch e.Kind {
		case trace.KindIRQ, trace.KindTick, trace.KindTaskSwitch, trace.KindLoadPhase:
			closers++
		case trace.KindAttest, trace.KindSession:
			if e.Sub == trace.SubRemote {
				closers++
			}
		case trace.KindFleet:
			if n, ok := e.NumAttr("session"); ok && e.Sub == trace.SubFleet {
				planeKeys[trace.SessionKey(e.Subject, n)] = true
			}
		}
	}
	a.Spans = make([]Span, 0, closers)

	var open []openSpan // in-flight loads, attest requests, IPC sends
	closeOne := func(class, subject string, end uint64) (openSpan, bool) {
		for i, o := range open {
			if o.class == class && o.subject == subject {
				open = append(open[:i], open[i+1:]...)
				return o, true
			}
		}
		return openSpan{}, false
	}

	// curTask / curSince track the running task for activation windows.
	// streamLast is the highest cycle the current platform stream has
	// reached: a merged multi-device stream concatenates lanes whose
	// cycle counters restart, and a dispatch stamped before the open
	// window's start marks such a restart. The window then closes where
	// its own stream ended, not at the next lane's first dispatch.
	var curTask string
	var curSince, streamLast uint64
	haveTask := false

	// loadPhase tracks the current phase of each in-flight load so
	// phase transitions close the previous phase's sub-span.
	type phaseMark struct {
		phase string
		since uint64
	}
	loadPhase := make(map[string]phaseMark)

	for _, e := range events {
		if e.Kind == trace.KindTaskSwitch && haveTask && e.Cycle < curSince {
			a.Spans = append(a.Spans, Span{Class: ClassTask, Subject: curTask, Start: curSince, End: streamLast})
			haveTask, streamLast = false, 0
		}
		streamLast = max(streamLast, e.Cycle)
		switch e.Kind {
		case trace.KindIRQ, trace.KindTick:
			// One event carries the whole service window: the kernel
			// stamps completion and attributes the raise-to-exit latency.
			class, lat, _ := Sample(e)
			start := e.Cycle
			if lat <= e.Cycle {
				start = e.Cycle - lat
			}
			a.Spans = append(a.Spans, Span{Class: class, Subject: e.Subject, Start: start, End: e.Cycle})

		case trace.KindTaskSwitch:
			if haveTask {
				a.Spans = append(a.Spans, Span{Class: ClassTask, Subject: curTask, Start: curSince, End: e.Cycle})
			}
			curTask, curSince, haveTask = e.Subject, e.Cycle, true
			// An IPC delivery closes when its receiver is dispatched.
			if o, ok := closeOne(ClassIPC, e.Subject, e.Cycle); ok {
				a.Spans = append(a.Spans, Span{Class: ClassIPC, Subject: o.subject, Start: o.start, End: e.Cycle})
			}

		case trace.KindLoadPhase:
			ph, _ := e.Attr("phase")
			switch ph.Str {
			case "done", "failed":
				if m, ok := loadPhase[e.Subject]; ok {
					a.Spans = append(a.Spans, Span{Class: loadPhaseClass + m.phase, Subject: e.Subject, Start: m.since, End: e.Cycle})
					delete(loadPhase, e.Subject)
				}
				if o, ok := closeOne(ClassLoad, e.Subject, e.Cycle); ok {
					a.Spans = append(a.Spans, Span{Class: ClassLoad, Subject: o.subject, Start: o.start, End: e.Cycle})
				}
			default:
				if m, ok := loadPhase[e.Subject]; ok {
					a.Spans = append(a.Spans, Span{Class: loadPhaseClass + m.phase, Subject: e.Subject, Start: m.since, End: e.Cycle})
				} else {
					// First phase event of this load opens the whole-load span.
					open = append(open, openSpan{class: ClassLoad, subject: e.Subject, start: e.Cycle})
				}
				loadPhase[e.Subject] = phaseMark{phase: ph.Str, since: e.Cycle}
			}

		case trace.KindAttest:
			if e.Sub != trace.SubRemote {
				break // component-side quote events are instantaneous
			}
			ph, _ := e.Attr("phase")
			switch ph.Str {
			case "request":
				open = append(open, openSpan{class: ClassAttest, subject: e.Subject, start: e.Cycle})
			default:
				// Reply: close the matching request, falling back to the
				// rtt attribute when a truncated trace lost the request.
				if o, ok := closeOne(ClassAttest, e.Subject, e.Cycle); ok {
					a.Spans = append(a.Spans, Span{Class: ClassAttest, Subject: o.subject, Start: o.start, End: e.Cycle})
				} else if _, rtt, ok := Sample(e); ok && rtt <= e.Cycle {
					a.Spans = append(a.Spans, Span{Class: ClassAttest, Subject: e.Subject, Start: e.Cycle - rtt, End: e.Cycle})
				}
			}

		case trace.KindSession:
			// Device-side session lifecycle: phase=hello opens, any other
			// phase (verdict/refused/error) closes. Sessions are keyed by
			// (device, ordinal) so back-to-back sessions of one device
			// never cross-pair even in a merged multi-device stream.
			n, _ := e.NumAttr("session")
			key := trace.SessionKey(e.Subject, n)
			ph, _ := e.Attr("phase")
			if ph.Str == "hello" {
				open = append(open, openSpan{class: ClassSession, subject: key, start: e.Cycle})
				break
			}
			if o, ok := closeOne(ClassSession, key, e.Cycle); ok {
				class := ClassSession
				if planeKeys[key] {
					class = ClassFleetE2E
				}
				a.Spans = append(a.Spans, Span{Class: class, Subject: key, Start: o.start, End: e.Cycle})
			}

		case trace.KindIPC:
			dir, _ := e.Attr("dir")
			to, hasTo := e.Attr("to")
			status, _ := e.NumAttr("status")
			if dir.Str == "send" && hasTo && status == 0 {
				// Delivery latency: send → the receiver's next dispatch.
				open = append(open, openSpan{class: ClassIPC, subject: to.Str, start: e.Cycle})
			}

		case trace.KindTaskBurst:
			cycles, _ := e.NumAttr("cycles")
			if a.Bursts == nil {
				a.Bursts = make(map[string]BurstStats)
			}
			st := a.Bursts[e.Subject]
			st.Count++
			st.Sum += cycles
			if cycles > st.Max {
				st.Max = cycles
			}
			a.Bursts[e.Subject] = st

		case trace.KindDeadlineMiss:
			a.DeadlineMisses++
		case trace.KindViolation:
			a.Violations++
		case trace.KindSLOViolation:
			a.SLOViolations++
		}
	}

	// Cut whatever is still in flight at the end of the trace.
	if haveTask {
		a.lastTask = Span{Class: ClassTask, Subject: curTask, Start: curSince, End: streamLast}
		a.Spans = append(a.Spans, a.lastTask)
	}
	for name, m := range loadPhase {
		a.Spans = append(a.Spans, Span{Class: loadPhaseClass + m.phase, Subject: name, Start: m.since, End: a.LastCycle, Unclosed: true})
	}
	for _, o := range open {
		a.Spans = append(a.Spans, Span{Class: o.class, Subject: o.subject, Start: o.start, End: a.LastCycle, Unclosed: true})
	}

	slices.SortStableFunc(a.Spans, func(x, y Span) int {
		return cmp.Or(cmp.Compare(x.Start, y.Start), strings.Compare(x.Class, y.Class), strings.Compare(x.Subject, y.Subject))
	})
	return a
}

// Stats is the order-statistics summary of a span class. All values
// are cycles; percentiles use the nearest-rank method so they are
// exact observed values, deterministic across runs.
type Stats struct {
	Count int    `json:"count"`
	Min   uint64 `json:"min"`
	P50   uint64 `json:"p50"`
	P95   uint64 `json:"p95"`
	P99   uint64 `json:"p99"`
	Max   uint64 `json:"max"`
	Sum   uint64 `json:"sum"`
}

// Percentile returns the nearest-rank q-quantile (0 < q <= 1) of the
// sorted durations.
func Percentile(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*q + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Summarize computes Stats over sorted durations.
func Summarize(sorted []uint64) Stats {
	st := Stats{Count: len(sorted)}
	if len(sorted) == 0 {
		return st
	}
	st.Min = sorted[0]
	st.Max = sorted[len(sorted)-1]
	st.P50 = Percentile(sorted, 0.50)
	st.P95 = Percentile(sorted, 0.95)
	st.P99 = Percentile(sorted, 0.99)
	for _, d := range sorted {
		st.Sum += d
	}
	return st
}
