package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Chrome trace_event export. A trace is a list of lanes; lane i
// becomes process i+1 on the chrome://tracing / Perfetto timeline.
// Events become "instant" records (ph "i"): ts carries the simulated
// cycle (the viewer displays it as microseconds — one display-µs per
// cycle) and tid is the subsystem, so each layer gets its own row.
// Completed spans (attestation sessions) become complete-duration
// records (ph "X") on thread 0, so the viewer draws one bar per
// session. A single platform is one unnamed lane (pid 1). A fleet
// timeline names every lane — one per device plus the verifier plane —
// and each named lane gets a process_name metadata record; the
// metadata key layout=fleet-lanes marks a trace with named lanes.
//
// The args payload is designed for lossless round-trips: attributes are
// [key, tag, value] triples with tag "n" (uint64, encoded as a decimal
// string to dodge JSON's float53 ceiling) or "s" (string). The cycle
// itself is carried twice: as the numeric ts (what the viewers read)
// and as the exact decimal string args.cycle — any tool that funnels
// ts through a float64 silently rounds cycles above 2^53, so the read
// path prefers the string form when present.

// Lane is one process row of a Chrome trace: a name (empty for a
// single platform), the instant events on it, and the completed spans
// drawn as bars.
type Lane struct {
	Name   string
	Events []Event
	Spans  []ChromeSpan
}

// ChromeSpan is one complete-duration record (ph "X") on a lane: a
// named bar from Start for Dur cycles.
type ChromeSpan struct {
	Name    string // bar label (the session key)
	Subject string
	Start   uint64
	Dur     uint64
	Attrs   []Attr
}

// spanThread is the tid complete-duration and process_name records
// land on — below the per-subsystem instant threads so sessions render
// as their own row.
const spanThread = 0

// chromeEvent is one trace_event record. TS is a json.Number so writes
// stay exact decimal integers while reads tolerate float-mangled
// values (1.8446744073709552e+19) produced by tools that re-encode ts
// through a float64.
type chromeEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	TS   json.Number `json:"ts,omitempty"`
	Dur  json.Number `json:"dur,omitempty"` // complete spans (ph "X") only
	PID  int         `json:"pid"`
	TID  int         `json:"tid"`
	S    string      `json:"s,omitempty"` // instant scope: thread
	Args chromeArgs  `json:"args"`
}

// chromeArgs carries the structured payload of an event.
type chromeArgs struct {
	Name    string      `json:"name,omitempty"` // metadata (ph "M") payload
	Sub     string      `json:"sub,omitempty"`
	Subject string      `json:"subject,omitempty"`
	Cycle   string      `json:"cycle,omitempty"` // exact decimal cycle
	Dur     string      `json:"dur,omitempty"`   // exact decimal span length
	Attrs   [][3]string `json:"attrs,omitempty"`
}

// chromeFile is the JSON-object form of the trace_event format.
type chromeFile struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Metadata        map[string]string `json:"metadata,omitempty"`
}

// WriteChromeTrace encodes lanes as Chrome trace_event JSON, lane i as
// process i+1. It is the only Chrome trace writer: a platform exports
// one unnamed lane, a fleet timeline one named lane per process.
func WriteChromeTrace(w io.Writer, lanes ...Lane) error {
	n := 0
	for _, lane := range lanes {
		n += 1 + len(lane.Events) + len(lane.Spans)
	}
	file := chromeFile{
		TraceEvents:     make([]chromeEvent, 0, n),
		DisplayTimeUnit: "ns",
		Metadata:        map[string]string{"clock": "simulated-cycles"},
	}
	for li, lane := range lanes {
		pid := li + 1
		if lane.Name != "" {
			file.Metadata["layout"] = "fleet-lanes"
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: "process_name",
				Ph:   "M",
				PID:  pid,
				TID:  spanThread,
				Args: chromeArgs{Name: lane.Name},
			})
		}
		for _, e := range lane.Events {
			file.TraceEvents = append(file.TraceEvents, instantRecord(pid, e))
		}
		for _, s := range lane.Spans {
			file.TraceEvents = append(file.TraceEvents, spanRecord(pid, s))
		}
	}
	return json.NewEncoder(w).Encode(file)
}

// instantRecord encodes one event as an instant record (ph "i") on
// process pid, one thread per subsystem.
func instantRecord(pid int, e Event) chromeEvent {
	cycle := strconv.FormatUint(e.Cycle, 10)
	return chromeEvent{
		Name: e.Kind.String(),
		Ph:   "i",
		TS:   json.Number(cycle),
		PID:  pid,
		TID:  int(e.Sub) + 1,
		S:    "t",
		Args: chromeArgs{Sub: e.Sub.String(), Subject: e.Subject, Cycle: cycle, Attrs: encodeAttrs(e.Attrs)},
	}
}

// spanRecord encodes one span as a complete-duration record (ph "X")
// on process pid.
func spanRecord(pid int, s ChromeSpan) chromeEvent {
	start := strconv.FormatUint(s.Start, 10)
	dur := strconv.FormatUint(s.Dur, 10)
	return chromeEvent{
		Name: s.Name,
		Ph:   "X",
		TS:   json.Number(start),
		Dur:  json.Number(dur),
		PID:  pid,
		TID:  spanThread,
		Args: chromeArgs{Subject: s.Subject, Cycle: start, Dur: dur, Attrs: encodeAttrs(s.Attrs)},
	}
}

// encodeAttrs renders Attrs as lossless [key, tag, value] triples.
func encodeAttrs(attrs []Attr) [][3]string {
	var out [][3]string
	for _, a := range attrs {
		if a.IsNum {
			out = append(out, [3]string{a.Key, "n", strconv.FormatUint(a.Num, 10)})
		} else {
			out = append(out, [3]string{a.Key, "s", a.Str})
		}
	}
	return out
}

// eventCycle recovers the exact cycle of one record: the decimal
// args.cycle string when present (lossless even after a float64-based
// tool rewrote ts), falling back to ts — parsed as uint64 first, then
// as a float for traces whose ts was already rounded. A float of
// exactly 2^64 reads as MaxUint64, since every uint64 near the top
// rounds to it; anything larger is not a cycle.
func eventCycle(ce chromeEvent) (uint64, error) {
	if ce.Args.Cycle != "" {
		n, err := strconv.ParseUint(ce.Args.Cycle, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad cycle arg %q: %w", ce.Args.Cycle, err)
		}
		return n, nil
	}
	ts := ce.TS.String()
	if n, err := strconv.ParseUint(ts, 10, 64); err == nil {
		return n, nil
	}
	f, err := ce.TS.Float64()
	switch {
	case err != nil || f < 0 || f > 1<<64:
		return 0, fmt.Errorf("bad ts %q", ts)
	case f == 1<<64:
		return math.MaxUint64, nil
	}
	return uint64(f), nil
}

// ReadChromeTrace decodes a trace written by WriteChromeTrace back
// into its lanes, in pid order of first appearance, validating the
// trace_event structure as it goes. It is the only decode loop; every
// error it returns carries the "chrome trace:" prefix.
func ReadChromeTrace(r io.Reader) ([]Lane, error) {
	var file chromeFile
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("chrome trace: %w", err)
	}
	var lanes []Lane
	byPID := make(map[int]int) // pid → index into lanes
	laneFor := func(pid int) *Lane {
		if idx, ok := byPID[pid]; ok {
			return &lanes[idx]
		}
		byPID[pid] = len(lanes)
		lanes = append(lanes, Lane{})
		return &lanes[len(lanes)-1]
	}
	for i, ce := range file.TraceEvents {
		lane := laneFor(ce.PID)
		var err error
		switch ce.Ph {
		case "i":
			var e Event
			e, err = parseInstant(ce)
			lane.Events = append(lane.Events, e)
		case "M":
			if ce.Name != "process_name" {
				err = fmt.Errorf("unknown metadata %q", ce.Name)
			}
			lane.Name = ce.Args.Name
		case "X":
			var s ChromeSpan
			s, err = parseSpan(ce)
			lane.Spans = append(lane.Spans, s)
		default:
			err = fmt.Errorf("unexpected phase %q", ce.Ph)
		}
		if err != nil {
			return nil, fmt.Errorf("chrome trace: event %d: %w", i, err)
		}
	}
	return lanes, nil
}

// ReadTraceEvents reads a Chrome trace and flattens its lanes' instant
// events into one stream, lane after lane; span and metadata records
// are validated and dropped. Analysis tools read traces through it.
func ReadTraceEvents(r io.Reader) ([]Event, error) {
	lanes, err := ReadChromeTrace(r)
	return flatten(lanes), err
}

// flatten concatenates the lanes' instant events.
func flatten(lanes []Lane) []Event {
	var events []Event
	for _, l := range lanes {
		events = append(events, l.Events...)
	}
	return events
}

// parseSpan decodes one complete-duration record (ph "X").
func parseSpan(ce chromeEvent) (ChromeSpan, error) {
	s := ChromeSpan{Name: ce.Name, Subject: ce.Args.Subject}
	var err error
	if s.Start, err = eventCycle(ce); err != nil {
		return s, err
	}
	durStr := ce.Args.Dur
	if durStr == "" {
		durStr = ce.Dur.String()
	}
	if s.Dur, err = strconv.ParseUint(durStr, 10, 64); err != nil {
		return s, fmt.Errorf("bad dur %q: %w", durStr, err)
	}
	s.Attrs, err = parseAttrs(ce.Args.Attrs)
	return s, err
}

// parseAttrs decodes the [key, tag, value] attribute triples of one
// record back into Attrs.
func parseAttrs(raws [][3]string) ([]Attr, error) {
	var attrs []Attr
	for _, raw := range raws {
		switch raw[1] {
		case "n":
			n, err := strconv.ParseUint(raw[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad numeric attr %q: %w", raw[2], err)
			}
			attrs = append(attrs, Num(raw[0], n))
		case "s":
			attrs = append(attrs, Str(raw[0], raw[2]))
		default:
			return nil, fmt.Errorf("unknown attr tag %q", raw[1])
		}
	}
	return attrs, nil
}

// parseInstant decodes one ph "i" record back into an Event,
// validating the kind/subsystem/tid invariants the writers maintain.
func parseInstant(ce chromeEvent) (Event, error) {
	kind, err := ParseKind(ce.Name)
	if err != nil {
		return Event{}, err
	}
	sub, err := ParseSubsystem(ce.Args.Sub)
	if err != nil {
		return Event{}, err
	}
	if want := int(sub) + 1; ce.TID != want {
		return Event{}, fmt.Errorf("tid %d does not match subsystem %s", ce.TID, sub)
	}
	cycle, err := eventCycle(ce)
	if err != nil {
		return Event{}, err
	}
	attrs, err := parseAttrs(ce.Args.Attrs)
	return Event{Cycle: cycle, Sub: sub, Kind: kind, Subject: ce.Args.Subject, Attrs: attrs}, err
}
