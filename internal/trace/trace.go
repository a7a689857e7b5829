// Package trace is the platform's observability layer: cycle-stamped
// typed events, per-subsystem metrics, and profiling exports.
//
// Every layer of the simulated stack — machine, kernel, EA-MPU, loader,
// trusted components, attestation link — emits Events into a Sink. The
// paper reports every result in clock cycles so behaviour can be
// compared across platforms (§6); this package extends the idea to the
// whole runtime: events carry the deterministic cycle counter, never
// host time, so two runs with the same seed produce identical streams.
//
// Observability is strictly a lens: emission never charges simulated
// cycles and a nil Sink costs one pointer check, so with tracing
// disabled the paper's cycle metrics are byte-identical.
//
// The package has three parts:
//
//   - events: Event / Kind / Subsystem / Attr, the Sink interface and
//     the queryable Buffer (this file);
//   - metrics: Registry with gauges and histograms
//     (metrics.go), rendered in Prometheus text format (prom.go);
//   - exporters: Chrome trace_event JSON (chrome.go). Cycle
//     attribution (spans, the per-task and load-phase profile) lives
//     in internal/analyze.
package trace

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Subsystem identifies the layer that emitted an event.
type Subsystem uint8

// Subsystems, in stable wire order.
const (
	SubMachine Subsystem = iota
	SubKernel
	SubEAMPU
	SubLoader
	SubSupervisor
	SubAttest
	SubRemote
	_ // retired; the gap keeps each later subsystem's Chrome-trace tid
	SubHarness
	SubIPC
	SubAnalyze
	SubUpdate
	SubFleet

	numSubsystems
)

var subsystemNames = [numSubsystems]string{
	"machine", "kernel", "eampu", "loader", "supervisor",
	"attest", "remote", "", "harness", "ipc", "analyze",
	"update", "fleet",
}

// String names the subsystem.
func (s Subsystem) String() string {
	if int(s) < len(subsystemNames) {
		return subsystemNames[s]
	}
	return fmt.Sprintf("sub(%d)", uint8(s))
}

// ParseSubsystem is String's inverse (exporter round-trips).
func ParseSubsystem(s string) (Subsystem, error) {
	for i, n := range subsystemNames {
		if n == s && n != "" {
			return Subsystem(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown subsystem %q", s)
}

// Kind classifies an event within the platform-wide taxonomy.
type Kind uint8

// Event kinds, in stable wire order.
const (
	KindTaskInstall  Kind = iota // a task entered the system
	KindTaskSwitch               // the scheduler dispatched a task
	KindTaskExit                 // a task left the system (with cause)
	KindSyscall                  // an SVC trap reached the kernel
	KindIRQ                      // a non-timer interrupt was serviced
	KindTick                     // the scheduler tick fired
	KindLoadPhase                // a dynamic load crossed a phase boundary
	KindViolation                // the EA-MPU denied an access
	KindSupervisor               // a supervisor recovery action
	KindAttest                   // an attestation quote round-trip
	KindActivation               // a harness-observed task activation
	KindIPC                      // a secure-IPC proxy operation
	KindDeadlineMiss             // a registered periodic task missed a deadline
	KindSLOViolation             // an SLO rule was violated (online monitor)
	KindVerifyDenied             // the pre-load static verifier rejected an image

	// Secure-update decisions (SubUpdate). Every update request ends in
	// exactly one of these three, so a verifier can audit the full
	// update history from the event stream alone.
	KindUpdateAccepted   // an update was verified, swapped in and re-attested
	KindUpdateDenied     // an update was refused before any state changed (reason attr)
	KindUpdateRolledBack // a mid-swap fault was unwound; the old task runs on

	// Fleet-plane decisions (SubFleet): registry state changes and
	// hello-stage refusals made by the verifier plane about a device.
	KindFleet

	// KindSession brackets one device-initiated attestation session on
	// the device side (SubRemote): a phase=hello event when the session
	// opens and a closing event (phase=verdict/refused/error) stamped
	// with the device-cycle end-to-end latency. Both carry the session
	// ordinal that the plane echoes on its KindFleet decision, so the
	// two time domains correlate on (device, session).
	KindSession

	// KindTaskBurst records one completed machine run segment of an ISA
	// task (SubSched): the cycles consumed between dispatch and the next
	// trap. The analyzer cross-checks these measured bursts against the
	// task's static worst-case burst bound.
	KindTaskBurst

	numKinds
)

var kindNames = [numKinds]string{
	"task-install", "task-switch", "task-exit", "syscall", "irq",
	"tick", "load-phase", "eampu-violation", "supervisor",
	"attest", "activation", "ipc",
	"deadline-miss", "slo-violation", "verify-denied",
	"update-accepted", "update-denied", "update-rolled-back",
	"fleet", "session", "task-burst",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind is String's inverse (exporter round-trips).
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown kind %q", s)
}

// SessionKey renders the canonical fleet session correlation key:
// device name plus the device's 0-based session ordinal. Device-side
// KindSession events and plane-side KindFleet events both resolve to
// this key, which is what joins the two time domains.
func SessionKey(device string, ordinal uint64) string {
	var buf [64]byte
	return string(AppendSessionKey(buf[:0], device, ordinal))
}

// AppendSessionKey appends SessionKey(device, ordinal) to dst.
func AppendSessionKey(dst []byte, device string, ordinal uint64) []byte {
	return strconv.AppendUint(append(append(dst, device...), '#'), ordinal, 10)
}

// Attr is one structured event attribute: a key with either a string or
// an unsigned numeric value. Numbers stay numbers through the exporters
// so consumers (the span engine, profile and histograms) need not
// re-parse.
type Attr struct {
	Key   string
	Str   string
	Num   uint64
	IsNum bool
}

// Str builds a string-valued attribute.
func Str(key, val string) Attr { return Attr{Key: key, Str: val} }

// Num builds a numeric attribute.
func Num(key string, val uint64) Attr { return Attr{Key: key, Num: val, IsNum: true} }

// Hex builds a string attribute rendering val as hex (addresses).
func Hex(key string, val uint64) Attr {
	var buf [18]byte
	return Attr{Key: key, Str: string(strconv.AppendUint(append(buf[:0], "0x"...), val, 16))}
}

// Value renders the attribute value.
func (a Attr) Value() string {
	if a.IsNum {
		return fmt.Sprint(a.Num)
	}
	return a.Str
}

// Event is one cycle-stamped typed occurrence.
type Event struct {
	// Cycle is the simulated cycle counter at emission.
	Cycle uint64
	// Sub is the emitting subsystem.
	Sub Subsystem
	// Kind classifies the event.
	Kind Kind
	// Subject names what the event is about (task, provider, image).
	Subject string
	// Attrs are structured details, in emission order.
	Attrs []Attr
}

// Attr returns the attribute with the given key, if present.
func (e Event) Attr(key string) (Attr, bool) {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// NumAttr returns the numeric attribute with the given key (0, false if
// absent or non-numeric).
func (e Event) NumAttr(key string) (uint64, bool) {
	a, ok := e.Attr(key)
	if !ok || !a.IsNum {
		return 0, false
	}
	return a.Num, true
}

// String renders the event on one line.
func (e Event) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%12d  %-10s %-15s", e.Cycle, e.Sub, e.Kind)
	if e.Subject != "" {
		sb.WriteByte(' ')
		sb.WriteString(e.Subject)
	}
	for _, a := range e.Attrs {
		sb.WriteByte(' ')
		sb.WriteString(a.Key)
		sb.WriteByte('=')
		sb.WriteString(a.Value())
	}
	return sb.String()
}

// Sink consumes events. Implementations must tolerate emission from
// the simulation loop (hot path): Emit should be cheap and must never
// mutate simulated state.
type Sink interface {
	Emit(e Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(e Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }

// Multi fans every event out to all of the given sinks.
func Multi(sinks ...Sink) Sink {
	return SinkFunc(func(e Event) {
		for _, s := range sinks {
			s.Emit(e)
		}
	})
}

// Buffer chunk sizes: the first chunk holds firstChunk events, each
// next one twice the last, up to maxChunk.
const (
	firstChunk = 64
	maxChunk   = 4096
)

// Buffer is an append-only in-memory Sink with query helpers (Count,
// RateKHz, Gaps, MaxGap) for tests and for the benchmark's traced
// use-case replay, which reads its activation rates and t0 gaps through
// them. The zero value is ready to use. Buffer is safe for concurrent emission; the
// simulated platform is single-threaded, but the attestation link
// serves exchanges from a host goroutine.
//
// Events are stored in chunks that are never regrown: a full chunk
// stays where it is and the next event opens a new one, so emission
// copies each event once and the queries walk the chunks in place.
type Buffer struct {
	mu     sync.Mutex
	chunks [][]Event // all full but the last
}

// Emit implements Sink.
func (b *Buffer) Emit(e Event) {
	b.mu.Lock()
	last := len(b.chunks) - 1
	if last < 0 || len(b.chunks[last]) == cap(b.chunks[last]) {
		size := firstChunk
		if last >= 0 {
			size = min(2*cap(b.chunks[last]), maxChunk)
		}
		b.chunks = append(b.chunks, make([]Event, 0, size))
		last++
	}
	b.chunks[last] = append(b.chunks[last], e)
	b.mu.Unlock()
}

// Len returns the number of buffered events.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.size()
}

func (b *Buffer) size() int {
	n := 0
	for _, c := range b.chunks {
		n += len(c)
	}
	return n
}

// Events returns a copy of the buffered events in emission order.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.chunks) == 0 {
		return nil
	}
	return b.appendEvents(make([]Event, 0, b.size()))
}

// AppendEvents appends the buffered events to dst in emission order and
// returns the extended slice.
func (b *Buffer) AppendEvents(dst []Event) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.appendEvents(dst)
}

func (b *Buffer) appendEvents(dst []Event) []Event {
	for _, c := range b.chunks {
		dst = append(dst, c...)
	}
	return dst
}

// match reports whether e has the given kind and subject.
func match(e *Event, kind Kind, subject string) bool {
	return e.Kind == kind && e.Subject == subject
}

// Count returns the number of (kind, subject) events in the half-open
// cycle window [from, to).
func (b *Buffer) Count(kind Kind, subject string, from, to uint64) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, c := range b.chunks {
		for i := range c {
			if e := &c[i]; match(e, kind, subject) && e.Cycle >= from && e.Cycle < to {
				n++
			}
		}
	}
	return n
}

// RateKHz returns the occurrence rate of (kind, subject) in [from, to)
// in kHz, given the platform clock in Hz.
func (b *Buffer) RateKHz(kind Kind, subject string, from, to uint64, clockHz uint64) float64 {
	if to <= from {
		return 0
	}
	n := b.Count(kind, subject, from, to)
	seconds := float64(to-from) / float64(clockHz)
	return float64(n) / seconds / 1000
}

// Gaps returns the cycle distances between consecutive (kind, subject)
// events, sorted ascending — the jitter profile of a periodic task.
func (b *Buffer) Gaps(kind Kind, subject string) []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var prev uint64
	havePrev := false
	var gaps []uint64
	for _, c := range b.chunks {
		for i := range c {
			e := &c[i]
			if !match(e, kind, subject) {
				continue
			}
			if havePrev {
				gaps = append(gaps, e.Cycle-prev)
			}
			prev = e.Cycle
			havePrev = true
		}
	}
	slices.Sort(gaps)
	return gaps
}

// MaxGap returns the largest inter-event gap for (kind, subject) — 0 if
// fewer than two events.
func (b *Buffer) MaxGap(kind Kind, subject string) uint64 {
	gaps := b.Gaps(kind, subject)
	if len(gaps) == 0 {
		return 0
	}
	return gaps[len(gaps)-1]
}

// String renders the buffer, one event per line.
func (b *Buffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var sb strings.Builder
	for _, c := range b.chunks {
		for i := range c {
			sb.WriteString(c[i].String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
