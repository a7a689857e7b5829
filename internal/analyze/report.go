package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/trace"
)

// Report is the aggregated view of one analyzed trace: per-class
// latency statistics, occurrence counters and the SLO verdict (when a
// spec was supplied). Marshaling is deterministic: every slice is
// sorted, every map replaced by ordered entries.
type Report struct {
	Events         int          `json:"events"`
	LastCycle      uint64       `json:"last_cycle"`
	Spans          int          `json:"spans"`
	UnclosedSpans  int          `json:"unclosed_spans"`
	DeadlineMisses int          `json:"deadline_misses"`
	Violations     int          `json:"eampu_violations"`
	SLOViolations  int          `json:"slo_violations"`
	Classes        []ClassStats `json:"classes,omitempty"`
	Verdict        *Verdict     `json:"verdict,omitempty"`
}

// ClassStats is the latency summary of one span class.
type ClassStats struct {
	Class    string `json:"class"`
	Stats    Stats  `json:"stats"`
	Unclosed int    `json:"unclosed,omitempty"`
}

// BuildReport aggregates an analysis (and optional verdict) into a
// report.
func BuildReport(a *Analysis, verdict *Verdict) *Report {
	rep := &Report{
		Events:         len(a.Events),
		LastCycle:      a.LastCycle,
		Spans:          len(a.Spans),
		DeadlineMisses: a.DeadlineMisses,
		Violations:     a.Violations,
		SLOViolations:  a.SLOViolations,
		Verdict:        verdict,
	}
	unclosedBy := make(map[string]int)
	for _, s := range a.Spans {
		if s.Unclosed {
			rep.UnclosedSpans++
			unclosedBy[s.Class]++
		}
	}
	for _, class := range a.Classes() {
		rep.Classes = append(rep.Classes, ClassStats{
			Class:    class,
			Stats:    Summarize(a.Durations(class)),
			Unclosed: unclosedBy[class],
		})
	}
	return rep
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the human-readable report: the span-class latency
// table, occurrence counters and the SLO verdict.
func (r *Report) WriteText(w io.Writer) error {
	if r.Spans == 0 {
		fmt.Fprintf(w, "no spans (%d events, last cycle %d)\n", r.Events, r.LastCycle)
	} else {
		fmt.Fprintf(w, "%d events, %d spans (%d unclosed), last cycle %d\n",
			r.Events, r.Spans, r.UnclosedSpans, r.LastCycle)
		fmt.Fprintf(w, "\n%-14s %7s %10s %10s %10s %10s %10s\n",
			"class", "count", "min", "p50", "p95", "p99", "max")
		for _, c := range r.Classes {
			if c.Stats.Count == 0 && c.Unclosed > 0 {
				fmt.Fprintf(w, "%-14s %7s %10s %10s %10s %10s %10s  (%d unclosed)\n",
					c.Class, "0", "-", "-", "-", "-", "-", c.Unclosed)
				continue
			}
			line := fmt.Sprintf("%-14s %7d %10d %10d %10d %10d %10d",
				c.Class, c.Stats.Count, c.Stats.Min, c.Stats.P50,
				c.Stats.P95, c.Stats.P99, c.Stats.Max)
			if c.Unclosed > 0 {
				line += fmt.Sprintf("  (%d unclosed)", c.Unclosed)
			}
			fmt.Fprintln(w, line)
		}
	}
	if r.DeadlineMisses > 0 || r.Violations > 0 || r.SLOViolations > 0 {
		fmt.Fprintf(w, "\ndeadline misses: %d   eampu violations: %d   online slo violations: %d\n",
			r.DeadlineMisses, r.Violations, r.SLOViolations)
	}
	if r.Verdict != nil {
		fmt.Fprintf(w, "\nSLO verdict:\n")
		for _, res := range r.Verdict.Results {
			mark := "PASS"
			if !res.Pass {
				mark = "FAIL"
			}
			fmt.Fprintf(w, "  [%s] %-32s measured %d over %d sample(s)\n",
				mark, res.Text, res.Measured, res.Samples)
		}
		if r.Verdict.Pass {
			fmt.Fprintf(w, "SLO: PASS (%d rules)\n", len(r.Verdict.Results))
		} else {
			fmt.Fprintf(w, "SLO: FAIL (%d of %d rules)\n",
				len(r.Verdict.Failed()), len(r.Verdict.Results))
		}
	}
	return nil
}

// WriteFolded renders the analysis as folded stacks — one
// `frame;frame value` line per stack, the input format of flamegraph
// tools. The first frame is the task owning the cycles (from the
// task-switch stream); spans nested under a task add
// `task;class;subject` stacks weighted by span duration. Lines are
// sorted so output is deterministic.
func WriteFolded(w io.Writer, a *Analysis) error {
	// ownerAt finds the task running at a given cycle via the sorted
	// activation windows.
	var windows []Span
	for _, s := range a.Spans {
		if s.Class == ClassTask {
			windows = append(windows, s)
		}
	}
	ownerAt := func(cycle uint64) string {
		// Windows are already sorted by start; find the last window
		// starting at or before cycle.
		i := sort.Search(len(windows), func(i int) bool { return windows[i].Start > cycle })
		if i == 0 {
			return ""
		}
		return windows[i-1].Subject
	}

	// Task self time: the activation windows per task.
	lines := make(map[string]uint64)
	for task, tc := range a.taskCycles() {
		if tc.Cycles > 0 {
			lines[task] += tc.Cycles
		}
	}
	for _, s := range a.Spans {
		if s.Class == ClassTask || s.Duration() == 0 {
			continue
		}
		stack := s.Class
		if s.Subject != "" {
			stack += ";" + s.Subject
		}
		if owner := ownerAt(s.Start); owner != "" {
			stack = owner + ";" + stack
		}
		lines[stack] += s.Duration()
	}

	keys := make([]string, 0, len(lines))
	for k := range lines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, lines[k]); err != nil {
			return err
		}
	}
	return nil
}

// AnalyzeTrace is the one-call offline pipeline: read a Chrome trace,
// run the span engine, evaluate the optional spec, build the report.
func AnalyzeTrace(r io.Reader, spec *Spec) (*Analysis, *Report, error) {
	events, err := trace.ReadTraceEvents(r)
	if err != nil {
		return nil, nil, err
	}
	a := Analyze(events)
	var verdict *Verdict
	if spec != nil {
		verdict = spec.Evaluate(a)
	}
	return a, BuildReport(a, verdict), nil
}
