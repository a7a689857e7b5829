package fleet

import (
	"io"

	"repro/internal/trace"
)

// The fleet timeline merges N device event streams and the verifier
// plane's decision stream into one correlated, multi-lane Chrome trace.
// The two sides live in different time domains: device events carry
// that device's own simulated cycle counter, while plane events carry
// the device's session ordinal (a sequence number, not a time). The
// session key — trace.SessionKey(device, ordinal) — appears on both
// sides, so each plane decision can be re-anchored onto its device's
// cycle axis: the decision about session dev-0042#3 is pinned to the
// cycle at which dev-0042 saw session 3 close. Every correlated session
// renders as a pair of bars sharing the session key, one on the
// device's lane and one on the verifier-plane lane.

// NamedEvents is one device's event stream, tagged with the device
// name.
type NamedEvents struct {
	Name   string
	Events []trace.Event
}

// Session is one attestation session reconstructed from the device-side
// KindSession bracket, possibly correlated with the plane's decision.
type Session struct {
	Key     string // trace.SessionKey(Device, Ordinal)
	Device  string
	Ordinal uint64
	Start   uint64 // device cycle at the hello
	End     uint64 // device cycle at the closing event (0 until closed)
	Outcome string // closing phase: verdict / refused / error ("" = unclosed)
	Result  string // verdict result: pass / fail ("" otherwise)
	// Plane is the verifier plane's decision about this session (nil =
	// the plane emitted none, e.g. a transport error before the gate).
	Plane *trace.Event
}

// Closed reports whether the session's device-side bracket completed.
func (s *Session) Closed() bool { return s.Outcome != "" }

// Correlated reports whether both sides of the session are present: a
// closed device-side bracket and a plane-side decision sharing the key.
func (s *Session) Correlated() bool { return s.Closed() && s.Plane != nil }

// Timeline is the assembled fleet timeline.
type Timeline struct {
	// Lanes is the Chrome trace layout: lane 0 is the verifier plane,
	// then one lane per device in input order.
	Lanes []trace.Lane
	// Sessions lists every reconstructed session in device order, then
	// per device in stream order.
	Sessions []Session
}

// sessionID is a session's correlation key before it is rendered as
// trace.SessionKey.
type sessionID struct {
	device  string
	ordinal uint64
}

// BuildTimeline reconstructs sessions from the device streams,
// correlates them with the plane's decisions, and lays out the lanes.
// Inputs are not mutated; the output is a pure function of them, so a
// deterministic fleet run yields a byte-identical timeline. Every step
// is linear in the events: sessions are found by key in a map, and
// each device lane reads its own sessions from a per-device index.
func BuildTimeline(devices []NamedEvents, plane []trace.Event) *Timeline {
	// The plane rules on each session about once, so its stream's length
	// is a good first guess at the session count.
	t := &Timeline{Sessions: make([]Session, 0, len(plane))}
	byKey := make(map[sessionID]int, len(plane)) // session key → index into t.Sessions
	byDevice := make(map[string][]int)           // device → its indices into t.Sessions, ascending

	// Reconstruct the device-side brackets.
	for _, d := range devices {
		for i := range d.Events {
			e := &d.Events[i]
			if e.Kind != trace.KindSession {
				continue
			}
			n, ok := e.NumAttr("session")
			if !ok {
				continue
			}
			phase, ok := e.Attr("phase")
			if !ok {
				continue
			}
			id := sessionID{e.Subject, n}
			idx, found := byKey[id]
			if phase.Str == "hello" {
				if !found {
					byKey[id] = len(t.Sessions)
					byDevice[e.Subject] = append(byDevice[e.Subject], len(t.Sessions))
					t.Sessions = append(t.Sessions, Session{
						Key: trace.SessionKey(e.Subject, n), Device: e.Subject, Ordinal: n, Start: e.Cycle,
					})
				}
				continue
			}
			if found && !t.Sessions[idx].Closed() {
				s := &t.Sessions[idx]
				s.End = e.Cycle
				s.Outcome = phase.Str
				if r, ok := e.Attr("result"); ok {
					s.Result = r.Str
				}
			}
		}
	}

	// Every attr slice the timeline makes comes from one slab, each
	// piece capacity-clipped: the plane events' attrs plus "seq", a
	// copy of those for the plane's bars, and at most three per device
	// bar.
	var slabLen int
	for i := range plane {
		slabLen += 2*len(plane[i].Attrs) + 1
	}
	slab := make([]trace.Attr, 0, slabLen+3*len(t.Sessions))
	cut := func(lo int) []trace.Attr { return slab[lo:len(slab):len(slab)] }

	// Lane 0: the verifier plane. The first plane decision about a
	// session is its Plane. Each decision keeps its own sequence
	// ordinal as a "seq" attr and is re-anchored to the correlated
	// session's closing device cycle, so the lane lines up with the
	// device lanes in the viewer. Uncorrelated decisions keep their
	// ordinal as the timestamp (there is no cycle to anchor to).
	t.Lanes = make([]trace.Lane, 0, 1+len(devices))
	vp := trace.Lane{Name: "verifier-plane", Events: make([]trace.Event, len(plane))}
	for i := range plane {
		e := &plane[i]
		anchored := &vp.Events[i]
		*anchored = *e
		lo := len(slab)
		slab = append(append(slab, e.Attrs...), trace.Num("seq", e.Cycle))
		anchored.Attrs = cut(lo)
		n, ok := e.NumAttr("session")
		if !ok {
			continue
		}
		idx, found := byKey[sessionID{e.Subject, n}]
		if !found {
			continue
		}
		s := &t.Sessions[idx]
		if e.Kind == trace.KindFleet && s.Plane == nil {
			s.Plane = e
		}
		if s.Closed() {
			anchored.Cycle = s.End
		}
	}
	vp.Spans = make([]trace.ChromeSpan, 0, len(t.Sessions))
	for i := range t.Sessions {
		s := &t.Sessions[i]
		if !s.Correlated() {
			continue
		}
		lo := len(slab)
		slab = append(slab, s.Plane.Attrs...)
		vp.Spans = append(vp.Spans, trace.ChromeSpan{
			Name: s.Key, Subject: s.Device, Start: s.Start, Dur: s.End - s.Start,
			Attrs: cut(lo),
		})
	}
	t.Lanes = append(t.Lanes, vp)

	// One lane per device: the full event stream plus a bar per closed
	// session, named by the session key it shares with the plane's bar.
	for _, d := range devices {
		own := byDevice[d.Name]
		lane := trace.Lane{Name: "device/" + d.Name, Events: d.Events, Spans: make([]trace.ChromeSpan, 0, len(own))}
		for _, idx := range own {
			s := &t.Sessions[idx]
			if !s.Closed() {
				continue
			}
			lo := len(slab)
			slab = append(slab, trace.Str("phase", s.Outcome))
			if s.Result != "" {
				slab = append(slab, trace.Str("result", s.Result))
			}
			slab = append(slab, trace.Num("session", s.Ordinal))
			lane.Spans = append(lane.Spans, trace.ChromeSpan{
				Name: s.Key, Subject: s.Device, Start: s.Start, Dur: s.End - s.Start,
				Attrs: cut(lo),
			})
		}
		t.Lanes = append(t.Lanes, lane)
	}
	return t
}

// CorrelatedCount returns how many sessions have both sides present.
func (t *Timeline) CorrelatedCount() int {
	n := 0
	for i := range t.Sessions {
		if t.Sessions[i].Correlated() {
			n++
		}
	}
	return n
}

// E2E returns the end-to-end device-cycle durations of the closed
// sessions, in session order — the feed for the plane's
// session-duration histogram.
func (t *Timeline) E2E() []uint64 {
	var out []uint64
	for i := range t.Sessions {
		if t.Sessions[i].Closed() {
			out = append(out, t.Sessions[i].End-t.Sessions[i].Start)
		}
	}
	return out
}

// WriteChromeTrace exports the timeline as multi-lane Chrome
// trace_event JSON.
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	return trace.WriteChromeTraceLanes(w, t.Lanes)
}
