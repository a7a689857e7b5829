package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/contract"
	"repro/internal/trace"
)

// hello and closing build the device-side session bracket events the
// timeline reconstructs sessions from.
func hello(cycle uint64, device string, session uint64) trace.Event {
	return trace.Event{Cycle: cycle, Sub: trace.SubRemote, Kind: trace.KindSession, Subject: device,
		Attrs: []trace.Attr{trace.Num("session", session), trace.Str("phase", "hello")}}
}

func closing(cycle uint64, device string, session uint64, phase, result string) trace.Event {
	attrs := []trace.Attr{trace.Num("session", session), trace.Str("phase", phase)}
	if result != "" {
		attrs = append(attrs, trace.Str("result", result))
	}
	return trace.Event{Cycle: cycle, Sub: trace.SubRemote, Kind: trace.KindSession, Subject: device,
		Attrs: append(attrs, trace.Num("e2e", 1))}
}

// decision builds a plane-side verdict event about a device session.
func decision(ordinal uint64, device, result string, session ...uint64) trace.Event {
	attrs := []trace.Attr{trace.Str("what", "verdict"), trace.Str("result", result)}
	for _, n := range session {
		attrs = append(attrs, trace.Num("session", n))
	}
	return trace.Event{Cycle: ordinal, Sub: trace.SubFleet, Kind: trace.KindFleet, Subject: device, Attrs: attrs}
}

// edgeStreams are hand-built device and plane streams that exercise
// every malformed or ambiguous shape BuildTimeline tolerates.
func edgeStreams() ([]NamedEvents, []trace.Event) {
	tick := trace.Event{Cycle: 5, Sub: trace.SubKernel, Kind: trace.KindTick, Subject: "rtos"}
	devices := []NamedEvents{
		{Name: "dev-a", Events: []trace.Event{
			tick,
			hello(10, "dev-a", 0), closing(20, "dev-a", 0, "verdict", "pass"),
			// A duplicate hello: the first one opens the session.
			hello(30, "dev-a", 1), hello(35, "dev-a", 1), closing(40, "dev-a", 1, "verdict", "fail"),
			// A close with no hello.
			closing(45, "dev-a", 9, "error", ""),
			// An unclosed session.
			hello(50, "dev-a", 2),
			// A second close for one key: the first one closes it.
			hello(60, "dev-a", 3), closing(70, "dev-a", 3, "refused", ""), closing(75, "dev-a", 3, "error", ""),
			// Bracket events missing their session or phase attr.
			{Cycle: 80, Sub: trace.SubRemote, Kind: trace.KindSession, Subject: "dev-a",
				Attrs: []trace.Attr{trace.Str("phase", "hello")}},
			{Cycle: 81, Sub: trace.SubRemote, Kind: trace.KindSession, Subject: "dev-a",
				Attrs: []trace.Attr{trace.Num("session", 4)}},
		}},
		// Sessions whose Subject differs from the stream's name: one
		// belongs to another stream's device, one to no stream at all.
		{Name: "dev-b", Events: []trace.Event{
			hello(12, "dev-b", 0), closing(22, "dev-b", 0, "verdict", "pass"),
			hello(24, "dev-a", 5), closing(26, "dev-a", 5, "verdict", "pass"),
			hello(28, "dev-x", 0), closing(29, "dev-x", 0, "verdict", "pass"),
		}},
		// A second stream with the same device name.
		{Name: "dev-a", Events: []trace.Event{
			tick,
			hello(11, "dev-a", 0), closing(90, "dev-a", 0, "error", ""),
			hello(100, "dev-a", 7), closing(110, "dev-a", 7, "verdict", "pass"),
		}},
	}
	plane := []trace.Event{
		decision(0, "dev-a", "pass", 0),
		// Two decisions for one key: the first one wins.
		decision(1, "dev-a", "fail", 0),
		decision(2, "dev-a", "fail", 1),
		// A decision with no session attr.
		decision(3, "dev-a", "pass"),
		// Decisions for unknown keys.
		decision(0, "dev-z", "pass", 0),
		decision(4, "dev-a", "fail", 9),
		// A decision about an unclosed session.
		decision(5, "dev-a", "pass", 2),
		decision(6, "dev-a", "pass", 5),
		decision(0, "dev-b", "pass", 0),
		decision(0, "dev-x", "pass", 0),
		decision(7, "dev-a", "pass", 7),
		// A non-decision event carrying a session attr.
		{Cycle: 8, Sub: trace.SubFleet, Kind: trace.KindSyscall, Subject: "dev-a",
			Attrs: []trace.Attr{trace.Num("session", 3)}},
	}
	return devices, plane
}

// TestTimelineEdges pins BuildTimeline's reconstruction, correlation
// and lane layout over the edge-case streams: the rendered sessions,
// the correlated count, the end-to-end feed and the Chrome trace.
func TestTimelineEdges(t *testing.T) {
	contract.Check(t, contract.Row{Name: "fleet-timeline-edges", Produce: func(t *testing.T, _ contract.Point) []byte {
		devices, plane := edgeStreams()
		tl := BuildTimeline(devices, plane)
		var out bytes.Buffer
		for _, s := range tl.Sessions {
			fmt.Fprintf(&out, "%s device=%s ordinal=%d start=%d end=%d outcome=%q result=%q",
				s.Key, s.Device, s.Ordinal, s.Start, s.End, s.Outcome, s.Result)
			if s.Plane != nil {
				fmt.Fprintf(&out, " plane=[%s]", s.Plane.String())
			}
			out.WriteByte('\n')
		}
		fmt.Fprintf(&out, "correlated=%d e2e=%v\n", tl.CorrelatedCount(), tl.E2E())
		if err := tl.WriteChromeTrace(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}})
}

// TestTimelineOrdinalsOffPosition: sessions whose ordinals do not run
// 0, 1, 2, … in their device's stream — reversed, gapped, the largest
// ordinal — are still found by every later bracket and decision.
func TestTimelineOrdinalsOffPosition(t *testing.T) {
	const huge = ^uint64(0)
	devices := []NamedEvents{{Name: "dev-a", Events: []trace.Event{
		hello(10, "dev-a", 1), hello(11, "dev-a", 0), hello(12, "dev-a", huge), hello(13, "dev-a", 2),
		closing(20, "dev-a", 0, "verdict", "pass"), closing(21, "dev-a", huge, "verdict", "fail"),
		closing(22, "dev-a", 1, "refused", ""), closing(23, "dev-a", 2, "verdict", "pass"),
	}}}
	plane := []trace.Event{
		decision(0, "dev-a", "pass", 2), decision(1, "dev-a", "fail", huge),
		decision(2, "dev-a", "pass", 0), decision(3, "dev-a", "fail", 1),
	}
	tl := BuildTimeline(devices, plane)
	want := []struct {
		ordinal    uint64
		start, end uint64
		planeSeq   uint64
	}{{1, 10, 22, 3}, {0, 11, 20, 2}, {huge, 12, 21, 1}, {2, 13, 23, 0}}
	if len(tl.Sessions) != len(want) {
		t.Fatalf("%d sessions, want %d", len(tl.Sessions), len(want))
	}
	for i, w := range want {
		s := tl.Sessions[i]
		if s.Ordinal != w.ordinal || s.Start != w.start || s.End != w.end || s.Plane == nil || s.Plane.Cycle != w.planeSeq {
			t.Errorf("session %d = %+v, want ordinal %d, %d→%d, plane decision %d", i, s, w.ordinal, w.start, w.end, w.planeSeq)
		}
		if key := trace.SessionKey("dev-a", w.ordinal); s.Key != key {
			t.Errorf("session %d key %q, want %q", i, s.Key, key)
		}
	}
}

// fleetStreams runs the fleet with events collected and cuts the
// combined stream back into per-device streams and the plane's stream.
func fleetStreams(tb testing.TB, cfg Config) ([]NamedEvents, []trace.Event) {
	cfg.CollectEvents = true
	res, err := Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return cutStreams(tb, cfg, res.Events)
}

// cutStreams cuts a run's combined stream into per-device streams and
// the plane's stream. Each device stream ends at the closing bracket of
// its final round.
func cutStreams(tb testing.TB, cfg Config, events []trace.Event) ([]NamedEvents, []trace.Event) {
	cfg, _ = cfg.withDefaults()
	streams := make([]NamedEvents, 0, cfg.Devices)
	start := 0
	for i, e := range events {
		if len(streams) == cfg.Devices {
			break
		}
		name := DeviceName(len(streams))
		if e.Kind != trace.KindSession || e.Subject != name {
			continue
		}
		n, _ := e.NumAttr("session")
		if ph, _ := e.Attr("phase"); n == uint64(cfg.Rounds-1) && ph.Str != "hello" {
			streams = append(streams, NamedEvents{Name: name, Events: events[start : i+1]})
			start = i + 1
		}
	}
	if len(streams) != cfg.Devices {
		tb.Fatalf("found %d of %d device streams", len(streams), cfg.Devices)
	}
	return streams, events[start:]
}

// TestOneTimeline: the timeline fleet.Run assembles from the brackets
// its shard workers extracted equals BuildTimeline over the same run's
// streams — sessions, lanes, spans and attrs.
func TestOneTimeline(t *testing.T) {
	for _, seed := range []uint64{5, 23} {
		cfg := Config{
			Devices: 16, Rounds: 5, Seed: seed, Variants: 2, Faulty: 2, MaxFailures: 2,
			Telemetry: TelemetryConfig{Timeline: true},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Telemetry.Timeline
		want := BuildTimeline(cutStreams(t, cfg, res.Events))
		if len(got.Sessions) != int(res.Report.Sessions) || got.CorrelatedCount() == 0 {
			t.Fatalf("seed %d: %d sessions (%d correlated), report has %d",
				seed, len(got.Sessions), got.CorrelatedCount(), res.Report.Sessions)
		}
		if !reflect.DeepEqual(got.Sessions, want.Sessions) {
			t.Errorf("seed %d: sessions differ", seed)
		}
		if !reflect.DeepEqual(got.Lanes, want.Lanes) {
			t.Errorf("seed %d: lanes differ", seed)
		}
	}
}

// BenchmarkBuildTimeline assembles the timeline of a 256-device,
// 20-round fleet run (seed 1): 5,120 sessions.
func BenchmarkBuildTimeline(b *testing.B) {
	streams, plane := fleetStreams(b, Config{Devices: 256, Rounds: 20, Faulty: 4, Seed: 1, Shards: 2, Listeners: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildTimeline(streams, plane)
	}
}
