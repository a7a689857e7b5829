package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestChromeLanesRoundTrip(t *testing.T) {
	lanes := []Lane{
		{
			Name: "verifier-plane",
			Events: []Event{
				{Cycle: 3, Sub: SubFleet, Kind: KindFleet, Subject: "dev-0001",
					Attrs: []Attr{Str("what", "verdict"), Num("session", 2)}},
			},
			Spans: []ChromeSpan{
				{Name: "dev-0001#2", Subject: "dev-0001", Start: 100, Dur: 250,
					Attrs: []Attr{Str("result", "pass"), Num("seq", 3)}},
			},
		},
		{
			Name: "device/dev-0001",
			Events: []Event{
				{Cycle: 100, Sub: SubRemote, Kind: KindSession, Subject: "dev-0001",
					Attrs: []Attr{Num("session", 2), Str("phase", "hello")}},
				{Cycle: 350, Sub: SubRemote, Kind: KindSession, Subject: "dev-0001",
					Attrs: []Attr{Num("session", 2), Str("phase", "verdict"), Str("result", "pass"), Num("e2e", 250)}},
			},
			Spans: []ChromeSpan{
				{Name: "dev-0001#2", Subject: "dev-0001", Start: 100, Dur: 250},
			},
		},
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceLanes(&buf, lanes); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChromeTraceLanes(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lanes) {
		t.Fatalf("lanes = %d, want %d", len(got), len(lanes))
	}
	for i := range lanes {
		if got[i].Name != lanes[i].Name {
			t.Fatalf("lane %d name = %q, want %q", i, got[i].Name, lanes[i].Name)
		}
		if len(got[i].Events) != len(lanes[i].Events) {
			t.Fatalf("lane %d events = %d, want %d", i, len(got[i].Events), len(lanes[i].Events))
		}
		for j, e := range lanes[i].Events {
			if got[i].Events[j].String() != e.String() {
				t.Fatalf("lane %d event %d = %q, want %q", i, j, got[i].Events[j], e)
			}
		}
		if len(got[i].Spans) != len(lanes[i].Spans) {
			t.Fatalf("lane %d spans = %d, want %d", i, len(got[i].Spans), len(lanes[i].Spans))
		}
		for j, s := range lanes[i].Spans {
			g := got[i].Spans[j]
			if g.Name != s.Name || g.Subject != s.Subject || g.Start != s.Start || g.Dur != s.Dur {
				t.Fatalf("lane %d span %d = %+v, want %+v", i, j, g, s)
			}
		}
	}
}

func TestReadTraceEventsBothLayouts(t *testing.T) {
	events := []Event{
		{Cycle: 10, Sub: SubKernel, Kind: KindTick},
		{Cycle: 20, Sub: SubRemote, Kind: KindSession, Subject: "dev-0000",
			Attrs: []Attr{Num("session", 0), Str("phase", "hello")}},
	}

	// Single-lane layout: ReadTraceEvents must agree with ReadChromeTrace.
	var single bytes.Buffer
	if err := WriteChromeTrace(&single, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceEvents(bytes.NewReader(single.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) || got[1].String() != events[1].String() {
		t.Fatalf("single-lane flatten = %v, want %v", got, events)
	}

	// Multi-lane layout: metadata and span records are skipped, lanes
	// concatenate in file order.
	lanes := []Lane{
		{Name: "a", Events: events[:1], Spans: []ChromeSpan{{Name: "k", Start: 1, Dur: 2}}},
		{Name: "b", Events: events[1:]},
	}
	var multi bytes.Buffer
	if err := WriteChromeTraceLanes(&multi, lanes); err != nil {
		t.Fatal(err)
	}
	got, err = ReadTraceEvents(bytes.NewReader(multi.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].String() != events[0].String() || got[1].String() != events[1].String() {
		t.Fatalf("multi-lane flatten = %v, want %v", got, events)
	}

	// The strict single-lane reader must keep rejecting the lanes layout.
	if _, err := ReadChromeTrace(bytes.NewReader(multi.Bytes())); err == nil {
		t.Fatal("ReadChromeTrace accepted a multi-lane trace")
	}
}

func TestLabeledMetricsExposition(t *testing.T) {
	r := NewRegistry()
	r.GaugeWith("fleet_sessions", "sessions by outcome",
		func() uint64 { return 7 }, Label{Key: "outcome", Value: "attested"})
	r.GaugeWith("fleet_sessions", "sessions by outcome",
		func() uint64 { return 2 }, Label{Key: "outcome", Value: "rejected"})
	r.GaugeWith("fleet_device_state", "per-device registry state",
		func() uint64 { return 1 },
		Label{Key: "device", Value: "evil\"dev\\\nname"})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	// One HELP/TYPE header per family, not per label set.
	if n := strings.Count(text, "# TYPE fleet_sessions gauge"); n != 1 {
		t.Fatalf("TYPE header count = %d in:\n%s", n, text)
	}
	s, err := ScrapePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("scrape: %v\n%s", err, text)
	}
	if v := s.Samples[`fleet_sessions{outcome="attested"}`]; v != 7 {
		t.Fatalf("attested = %v, want 7 in %v", v, s.Samples)
	}
	if v := s.Samples[`fleet_sessions{outcome="rejected"}`]; v != 2 {
		t.Fatalf("rejected = %v, want 2", v)
	}
	// Adversarial label value round-trips in its canonical escaped form.
	want := `fleet_device_state{device="evil\"dev\\\nname"}`
	if v, ok := s.Samples[want]; !ok || v != 1 {
		t.Fatalf("escaped sample %q missing (got %v)", want, s.Samples)
	}
}

func TestDuplicateLabeledMetricPanics(t *testing.T) {
	r := NewRegistry()
	zero := func() uint64 { return 0 }
	r.GaugeWith("dup", "h", zero, Label{Key: "a", Value: "x"})
	// Same family, different labels: fine.
	r.GaugeWith("dup", "h", zero, Label{Key: "a", Value: "y"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate (name, labels) registration did not panic")
		}
	}()
	r.GaugeWith("dup", "h", zero, Label{Key: "a", Value: "x"})
}
