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

// BuildTimeline reconstructs sessions from the device streams,
// correlates them with the plane's decisions, and lays out the lanes.
// Inputs are not mutated; the output is a pure function of them, so a
// deterministic fleet run yields a byte-identical timeline. It reduces
// each stream to its session brackets and hands them to assemble, the
// reconstruction fleet.Run reaches with the brackets its shard workers
// already extracted.
func BuildTimeline(devices []NamedEvents, plane []trace.Event) *Timeline {
	var n int
	for _, d := range devices {
		for j := range d.Events {
			if d.Events[j].Kind == trace.KindSession {
				n++
			}
		}
	}
	slab := make([]bracket, 0, n)
	brackets := make([][]bracket, len(devices))
	for i, d := range devices {
		lo := len(slab)
		for j := range d.Events {
			if b, ok := bracketOf(&d.Events[j]); ok {
				slab = append(slab, b)
			}
		}
		brackets[i] = slab[lo:len(slab):len(slab)]
	}
	return assemble(devices, brackets, plane)
}

// bracket is one device-side KindSession event, reduced to what session
// reconstruction reads.
type bracket struct {
	subject string
	ordinal uint64 // the "session" attr
	cycle   uint64
	phase   string // "hello", or the closing phase
	result  string // the "result" attr ("" when absent)
}

// bracketOf reduces a KindSession event that carries both a session
// ordinal and a phase; any other event is no bracket.
func bracketOf(e *trace.Event) (bracket, bool) {
	if e.Kind != trace.KindSession {
		return bracket{}, false
	}
	n, ok := e.NumAttr("session")
	if !ok {
		return bracket{}, false
	}
	phase, ok := e.Attr("phase")
	if !ok {
		return bracket{}, false
	}
	result, _ := e.Attr("result")
	return bracket{subject: e.Subject, ordinal: n, cycle: e.Cycle, phase: phase.Str, result: result.Str}, true
}

// deviceSessions indexes one device's sessions (by Session.Device) in
// creation order. A session whose ordinal is its position in list —
// every session of a device whose stream runs its ordinals in order —
// is found there by position; only the others go into stray. Nothing
// is sized by an ordinal's value.
type deviceSessions struct {
	list  []int          // indices into Timeline.Sessions, in creation order
	stray map[uint64]int // ordinal → index, for sessions off their position
}

func (d *deviceSessions) add(idx int, ordinal uint64) {
	if ordinal != uint64(len(d.list)) {
		if d.stray == nil {
			d.stray = make(map[uint64]int)
		}
		d.stray[ordinal] = idx
	}
	d.list = append(d.list, idx)
}

func (d *deviceSessions) find(sessions []Session, ordinal uint64) (int, bool) {
	if ordinal < uint64(len(d.list)) {
		if idx := d.list[ordinal]; sessions[idx].Ordinal == ordinal {
			return idx, true
		}
	}
	idx, ok := d.stray[ordinal]
	return idx, ok
}

// assemble is the timeline reconstruction behind BuildTimeline and
// fleet.Run: brackets[i] are devices[i]'s session brackets in stream
// order. A device name is looked up once per stream, per plane event
// and per bracket about another stream's device; a session is then
// found by position within its device, so the work is linear in the
// brackets and the plane's events.
func assemble(devices []NamedEvents, brackets [][]bracket, plane []trace.Event) *Timeline {
	slot := make(map[string]int, len(devices)) // device → index into bySlot
	bySlot := make([]deviceSessions, 0, len(devices))
	slotOf := func(device string) int {
		k, ok := slot[device]
		if !ok {
			k = len(bySlot)
			slot[device] = k
			bySlot = append(bySlot, deviceSessions{})
		}
		return k
	}

	// Reconstruct the sessions: the first hello of a (device, ordinal)
	// opens it, the first later non-hello bracket closes it. The plane
	// rules on each session about once, so its stream's length is a
	// good first guess at the session count.
	t := &Timeline{Sessions: make([]Session, 0, len(plane))}
	for i, d := range devices {
		own := slotOf(d.Name)
		for j := range brackets[i] {
			b := &brackets[i][j]
			k := own
			if b.subject != d.Name {
				k = slotOf(b.subject)
			}
			ds := &bySlot[k]
			idx, found := ds.find(t.Sessions, b.ordinal)
			if b.phase == "hello" {
				if !found {
					ds.add(len(t.Sessions), b.ordinal)
					t.Sessions = append(t.Sessions, Session{Device: b.subject, Ordinal: b.ordinal, Start: b.cycle})
				}
				continue
			}
			if found && !t.Sessions[idx].Closed() {
				s := &t.Sessions[idx]
				s.End, s.Outcome, s.Result = b.cycle, b.phase, b.result
			}
		}
	}

	// Every session key is a substring of one string.
	ends := make([]int, len(t.Sessions))
	var kb []byte
	for i := range t.Sessions {
		kb = trace.AppendSessionKey(kb, t.Sessions[i].Device, t.Sessions[i].Ordinal)
		ends[i] = len(kb)
	}
	keys, lo := string(kb), 0
	for i, hi := range ends {
		t.Sessions[i].Key, lo = keys[lo:hi], hi
	}

	// Every attr slice the timeline makes comes from one slab, each
	// piece capacity-clipped: the plane events' attrs plus "seq", and
	// at most three per device bar. A plane bar aliases the leading
	// attrs of its decision's lane event.
	var slabLen int
	for i := range plane {
		slabLen += len(plane[i].Attrs) + 1
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
	decided := make([]int, len(t.Sessions)) // session → index of its Plane in plane
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
		k, ok := slot[e.Subject]
		if !ok {
			continue
		}
		ds := &bySlot[k]
		idx, found := ds.find(t.Sessions, n)
		if !found {
			continue
		}
		s := &t.Sessions[idx]
		if e.Kind == trace.KindFleet && s.Plane == nil {
			s.Plane = e
			decided[idx] = i
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
		n := len(s.Plane.Attrs)
		vp.Spans = append(vp.Spans, trace.ChromeSpan{
			Name: s.Key, Subject: s.Device, Start: s.Start, Dur: s.End - s.Start,
			Attrs: vp.Events[decided[i]].Attrs[:n:n],
		})
	}
	t.Lanes = append(t.Lanes, vp)

	// One lane per device: the full event stream plus a bar per closed
	// session, named by the session key it shares with the plane's bar.
	// The device bars come from one slab too.
	var nbars int
	for _, d := range devices {
		nbars += len(bySlot[slot[d.Name]].list)
	}
	bars := make([]trace.ChromeSpan, 0, nbars)
	for _, d := range devices {
		own := bySlot[slot[d.Name]].list
		lo := len(bars)
		for _, idx := range own {
			s := &t.Sessions[idx]
			if !s.Closed() {
				continue
			}
			alo := len(slab)
			slab = append(slab, trace.Str("phase", s.Outcome))
			if s.Result != "" {
				slab = append(slab, trace.Str("result", s.Result))
			}
			slab = append(slab, trace.Num("session", s.Ordinal))
			bars = append(bars, trace.ChromeSpan{
				Name: s.Key, Subject: s.Device, Start: s.Start, Dur: s.End - s.Start,
				Attrs: cut(alo),
			})
		}
		t.Lanes = append(t.Lanes, trace.Lane{Name: "device/" + d.Name, Events: d.Events, Spans: bars[lo:len(bars):len(bars)]})
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
// sessions, in session order: the samples behind Report.SessionE2E,
// read from the brackets instead of the closing events.
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
	return trace.WriteChromeTrace(w, t.Lanes...)
}
