package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Chrome trace_event export. Events become "instant" records (ph "i")
// on the chrome://tracing / Perfetto timeline: ts carries the simulated
// cycle (the viewer displays it as microseconds — one display-µs per
// cycle), pid is always 1 (one platform), and tid is the subsystem so
// each layer gets its own timeline row.
//
// The args payload is designed for lossless round-trips: attributes are
// [key, tag, value] triples with tag "n" (uint64, encoded as a decimal
// string to dodge JSON's float53 ceiling) or "s" (string). The cycle
// itself is carried twice: as the numeric ts (what the viewers read)
// and as the exact decimal string args.cycle — any tool that funnels
// ts through a float64 silently rounds cycles above 2^53, so the read
// path prefers the string form when present.

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

// WriteChromeTrace encodes events as Chrome trace_event JSON.
func WriteChromeTrace(w io.Writer, events []Event) error {
	file := chromeFile{
		TraceEvents:     make([]chromeEvent, 0, len(events)),
		DisplayTimeUnit: "ns",
		Metadata:        map[string]string{"clock": "simulated-cycles"},
	}
	for _, e := range events {
		file.TraceEvents = append(file.TraceEvents, instantRecord(1, e))
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
// as a float for traces whose ts was already rounded.
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
	if err != nil || f < 0 {
		return 0, fmt.Errorf("bad ts %q", ts)
	}
	return uint64(f), nil
}

// ReadChromeTrace decodes a trace produced by WriteChromeTrace back
// into events, validating the trace_event structure as it goes.
func ReadChromeTrace(r io.Reader) ([]Event, error) {
	lanes, err := decodeChrome(r, false)
	return flatten(lanes), err
}

// decodeChrome is the decode loop behind every reader: it rebuilds the
// lanes of a trace, in pid order of first appearance. Metadata and span
// records are accepted only in the lanes layout.
func decodeChrome(r io.Reader, lanesLayout bool) ([]Lane, error) {
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
		switch {
		case ce.Ph == "i":
			var e Event
			e, err = parseInstant(ce)
			lane.Events = append(lane.Events, e)
		case ce.Ph == "M" && lanesLayout:
			if ce.Name != "process_name" {
				err = fmt.Errorf("unknown metadata %q", ce.Name)
			}
			lane.Name = ce.Args.Name
		case ce.Ph == "X" && lanesLayout:
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

// flatten concatenates the lanes' instant events.
func flatten(lanes []Lane) []Event {
	var events []Event
	for _, l := range lanes {
		events = append(events, l.Events...)
	}
	return events
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
