package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Multi-lane Chrome trace export. Where chrome.go maps one platform to
// one process (pid 1) with a thread per subsystem, a fleet run merges
// many platforms plus the verifier plane into one file: each Lane
// becomes its own process (pid = index+1, named via a process_name
// metadata record), instant events keep the subsystem-per-thread
// layout inside their lane, and completed spans (attestation sessions)
// are emitted as complete-duration records (ph "X") so the viewer
// draws one bar per session. The metadata key layout=fleet-lanes marks
// the format; readers that only understand the single-lane layout can
// still recover the instant events with ReadTraceEvents.

// LanesLayout is the metadata value marking a multi-lane trace.
const LanesLayout = "fleet-lanes"

// ChromeSpan is one complete-duration record (ph "X") on a lane: a
// named bar from Start for Dur cycles.
type ChromeSpan struct {
	Name    string // bar label (the session key)
	Subject string
	Start   uint64
	Dur     uint64
	Attrs   []Attr
}

// Lane is one process row of a multi-lane Chrome trace: a name, the
// instant events on it, and the completed spans drawn as bars.
type Lane struct {
	Name   string
	Events []Event
	Spans  []ChromeSpan
}

// spanThread is the tid complete-duration records land on — below the
// per-subsystem instant threads so sessions render as their own row.
const spanThread = 0

// WriteChromeTraceLanes encodes lanes as multi-process Chrome
// trace_event JSON (lane i → pid i+1).
func WriteChromeTraceLanes(w io.Writer, lanes []Lane) error {
	file := chromeFile{
		DisplayTimeUnit: "ns",
		Metadata: map[string]string{
			"clock":  "simulated-cycles",
			"layout": LanesLayout,
		},
	}
	for li, lane := range lanes {
		pid := li + 1
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			PID:  pid,
			TID:  spanThread,
			Args: chromeArgs{Name: lane.Name},
		})
		for _, e := range lane.Events {
			file.TraceEvents = append(file.TraceEvents, instantRecord(pid, e))
		}
		for _, s := range lane.Spans {
			start := strconv.FormatUint(s.Start, 10)
			dur := strconv.FormatUint(s.Dur, 10)
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: s.Name,
				Ph:   "X",
				TS:   json.Number(start),
				Dur:  json.Number(dur),
				PID:  pid,
				TID:  spanThread,
				Args: chromeArgs{Subject: s.Subject, Cycle: start, Dur: dur, Attrs: encodeAttrs(s.Attrs)},
			})
		}
	}
	return json.NewEncoder(w).Encode(file)
}

// ReadChromeTraceLanes decodes a trace written by WriteChromeTraceLanes
// back into lanes, in pid order of first appearance.
func ReadChromeTraceLanes(r io.Reader) ([]Lane, error) {
	return decodeChrome(r, true)
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

// ReadTraceEvents recovers the flat instant-event stream from a Chrome
// trace in either layout: the single-platform form WriteChromeTrace
// produces, or the multi-lane fleet form — whose metadata and span
// records are validated and dropped and whose lanes are concatenated.
// It is the tolerant entry point analysis tools should use.
func ReadTraceEvents(r io.Reader) ([]Event, error) {
	lanes, err := decodeChrome(r, true)
	return flatten(lanes), err
}
