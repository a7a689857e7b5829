package fleet

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/trace"
)

// Flight recorder: a bounded window over a device's event stream that
// keeps the most recent events, overwriting the oldest once full, and
// freezes its contents when something goes wrong, so the last N events
// before an incident survive even though full event collection may be
// off or long since wrapped. Dumping the window is O(capacity)
// regardless of run length, and recording never allocates after
// construction: a mutex and a slot write per event. The trigger set is
// the fleet's "something a human will ask about" list: a session
// refused because the device is quarantined, an online SLO violation,
// and a secure update unwound by rollback. Only the first trigger
// freezes the window — the recorder keeps recording afterwards, but
// the incident snapshot stays the one taken at the moment of the trip.

// Flight-recorder trigger names.
const (
	TriggerQuarantineRefusal = "quarantine-refusal"
	TriggerSLOViolation      = "slo-violation"
	TriggerUpdateRollback    = "update-rollback"
)

// Recorder is one device's flight recorder: a bounded event window
// with auto-trip. It is a trace.Sink — attach it as an extra sink next
// to the device's buffer — and safe for concurrent emission.
type Recorder struct {
	device string

	mu      sync.Mutex
	buf     []trace.Event // the window, a ring of fixed capacity
	next    int           // slot the next event lands in
	wrapped bool          // true once an event has been overwritten
	trigger string        // "" until tripped
	cycle   uint64
	window  []trace.Event
}

// NewRecorder builds a flight recorder for the named device with a
// bounded window of capacity events. Capacity must be positive.
func NewRecorder(device string, capacity int) *Recorder {
	if capacity <= 0 {
		panic("fleet: NewRecorder capacity must be positive")
	}
	return &Recorder{device: device, buf: make([]trace.Event, capacity)}
}

// Emit records the event, overwriting the oldest when the window is
// full, and trips the recorder when the event matches a trigger. The
// first trip freezes the incident window; later triggers are recorded
// as ordinary events but do not re-freeze.
func (r *Recorder) Emit(e trace.Event) {
	trigger := ""
	switch e.Kind {
	case trace.KindSession:
		if a, ok := e.Attr("phase"); ok && a.Str == "refused" {
			trigger = TriggerQuarantineRefusal
		}
	case trace.KindSLOViolation:
		trigger = TriggerSLOViolation
	case trace.KindUpdateRolledBack:
		trigger = TriggerUpdateRollback
	}
	r.mu.Lock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
	if trigger != "" && r.trigger == "" {
		r.trigger = trigger
		r.cycle = e.Cycle
		r.window = r.snapshot()
	}
	r.mu.Unlock()
}

// snapshot returns a copy of the window's events, oldest first. The
// caller holds r.mu.
func (r *Recorder) snapshot() []trace.Event {
	if !r.wrapped {
		return append([]trace.Event(nil), r.buf[:r.next]...)
	}
	out := make([]trace.Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Tripped reports whether an incident froze the window.
func (r *Recorder) Tripped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trigger != ""
}

// Incident is one frozen flight window, correlated with the plane's
// decisions about the same device.
type Incident struct {
	Device  string
	Trigger string
	Cycle   uint64        // device cycle of the triggering event
	Window  []trace.Event // the frozen flight window, oldest first
	Plane   []trace.Event // the plane's decisions about this device
}

// Incident extracts the frozen incident, attaching the plane's
// decisions about this device from the given (already sorted) plane
// stream. ok is false when the recorder never tripped.
func (r *Recorder) Incident(plane []trace.Event) (inc Incident, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.trigger == "" {
		return Incident{}, false
	}
	inc = Incident{
		Device:  r.device,
		Trigger: r.trigger,
		Cycle:   r.cycle,
		Window:  append([]trace.Event(nil), r.window...),
	}
	for _, e := range plane {
		if e.Subject == r.device {
			inc.Plane = append(inc.Plane, e)
		}
	}
	return inc, true
}

// WriteIncidents renders incident reports as deterministic text: the
// trigger line, the frozen device-side window, and the plane's
// correlated decision stream.
func WriteIncidents(w io.Writer, incidents []Incident) error {
	if len(incidents) == 0 {
		_, err := fmt.Fprintln(w, "no incidents")
		return err
	}
	for i, inc := range incidents {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "incident: device %s, trigger %s, cycle %d\n",
			inc.Device, inc.Trigger, inc.Cycle)
		fmt.Fprintf(w, "  flight window (%d events):\n", len(inc.Window))
		for _, e := range inc.Window {
			fmt.Fprintf(w, "    %s\n", e.String())
		}
		fmt.Fprintf(w, "  plane decisions (%d):\n", len(inc.Plane))
		for _, e := range inc.Plane {
			if _, err := fmt.Fprintf(w, "    %s\n", e.String()); err != nil {
				return err
			}
		}
	}
	return nil
}
