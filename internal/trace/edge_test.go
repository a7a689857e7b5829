package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestChromeRoundTripUint64Extremes: the float64 ts field silently
// rounds cycles above 2^53; the exact decimal cycle arg must carry
// them losslessly through a write/read cycle.
func TestChromeRoundTripUint64Extremes(t *testing.T) {
	events := []Event{
		{Cycle: 0, Sub: SubKernel, Kind: KindTick},
		{Cycle: 1<<53 - 1, Sub: SubKernel, Kind: KindTick}, // float53 ceiling
		{Cycle: 1<<53 + 1, Sub: SubKernel, Kind: KindTick}, // first lossy value
		{Cycle: math.MaxUint64 - 1, Sub: SubKernel, Kind: KindTick},
		{Cycle: math.MaxUint64, Sub: SubKernel, Kind: KindTick,
			Attrs: []Attr{Num("latency", math.MaxUint64)}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, Lane{Events: events}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, events)
	}
}

// floatMangledTrace is a trace whose ts was re-encoded through a
// float64 by an external tool, with the cycle arg stripped.
const floatMangledTrace = `{"traceEvents":[
	{"name":"tick","ph":"i","ts":1.8446744073709552e+19,"pid":1,"tid":2,"s":"t","args":{"sub":"kernel"}},
	{"name":"tick","ph":"i","ts":42,"pid":1,"tid":2,"s":"t","args":{"sub":"kernel"}}
],"displayTimeUnit":"ns"}`

// TestChromeReadsFloatMangledTS: a float-mangled trace must still
// read, with the expected rounding: 2^64, where every uint64 near the
// top lands, reads as MaxUint64, and a larger ts is an error.
func TestChromeReadsFloatMangledTS(t *testing.T) {
	got, err := ReadTraceEvents(strings.NewReader(floatMangledTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Cycle != 42 {
		t.Fatalf("events = %+v", got)
	}
	if got[0].Cycle != math.MaxUint64 {
		t.Errorf("mangled ts read as %d, want MaxUint64", got[0].Cycle)
	}
	for _, ts := range []string{"1e300", "3e19"} {
		huge := `{"traceEvents":[{"name":"tick","ph":"i","ts":` + ts +
			`,"pid":1,"tid":2,"s":"t","args":{"sub":"kernel"}}]}`
		if got, err := ReadTraceEvents(strings.NewReader(huge)); err == nil {
			t.Errorf("ts %s read as %+v, want an error", ts, got)
		}
	}
	// The exact cycle arg wins over a disagreeing ts.
	exact := `{"traceEvents":[
		{"name":"tick","ph":"i","ts":1.8446744073709552e+19,"pid":1,"tid":2,"s":"t",
		 "args":{"sub":"kernel","cycle":"18446744073709551615"}}
	]}`
	got, err = ReadTraceEvents(strings.NewReader(exact))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Cycle != math.MaxUint64 {
		t.Errorf("cycle = %d, want MaxUint64", got[0].Cycle)
	}
}

// TestPrometheusAdversarialHelp: HELP strings containing newlines,
// backslashes and quotes must be escaped on write and restored on
// scrape — otherwise a hostile help string corrupts the exposition.
func TestPrometheusAdversarialHelp(t *testing.T) {
	help := "line one\nline two \\ backslash \"quoted\" \\n literal"
	r := NewRegistry()
	r.Gauge("tytan_adversarial", help, 7)
	h := r.Histogram("tytan_adversarial_cycles", "bounds\nwith \\ tricks", 10)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	// The exposition must stay line-structured: every line is a comment
	// or a sample, no raw help fragments.
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if sp := strings.LastIndexByte(line, ' '); sp < 0 {
			t.Errorf("line %d is neither comment nor sample: %q", i+1, line)
		}
	}

	s, err := ScrapePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("scrape failed: %v\n%s", err, text)
	}
	if got := s.Help["tytan_adversarial"]; got != help {
		t.Errorf("help round trip:\n got %q\nwant %q", got, help)
	}
	if s.Samples["tytan_adversarial"] != 7 {
		t.Errorf("samples = %v", s.Samples)
	}
	if s.Samples[`tytan_adversarial_cycles_bucket{le="10"}`] != 1 {
		t.Errorf("bucket sample lost: %v", s.Samples)
	}
}

// TestHelpEscapeRoundTrip covers the escaper pair directly at the
// awkward corners.
func TestHelpEscapeRoundTrip(t *testing.T) {
	for _, s := range []string{
		"", "plain", "\\", "\\\\", "\n", "\\n", "a\nb\\c", "trailing\\",
		"\\n\n\\\\n", `"quotes" stay raw in help`,
	} {
		if got := unescapeHelp(escapeHelp(s)); got != s {
			t.Errorf("round trip %q → %q", s, got)
		}
		if esc := escapeHelp(s); strings.ContainsRune(esc, '\n') {
			t.Errorf("escaped form of %q contains a raw newline: %q", s, esc)
		}
	}
}

// TestHistogramNoBounds: a histogram built with no bounds degenerates
// to a single +Inf bucket and must observe, snapshot and export.
func TestHistogramNoBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("tytan_unbounded", "No explicit buckets.")
	h.Observe(0)
	h.Observe(math.MaxUint64)
	if h.Count() != 2 {
		t.Errorf("count = %d", h.Count())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	scrape, err := ScrapePrometheus(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("scrape failed: %v\n%s", err, buf.String())
	}
	samples := scrape.Samples
	if samples[`tytan_unbounded_bucket{le="+Inf"}`] != 2 {
		t.Errorf("+Inf bucket = %v", samples)
	}
	if samples["tytan_unbounded_count"] != 2 {
		t.Errorf("count sample = %v", samples)
	}
}
