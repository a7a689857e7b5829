package fleet

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/trace"
	"repro/internal/trusted"
)

// telemetryConfig is the fleet config the telemetry tests share: one
// faulty device on a tight budget, so the run contains passes, fails
// and quarantine refusals.
func telemetryConfig() Config {
	return Config{
		Devices: 8, Rounds: 4, Seed: 11,
		Variants: 2, Faulty: 1, MaxFailures: 2,
		Telemetry: TelemetryConfig{Timeline: true, Metrics: true, FlightSize: 64},
	}
}

// TestTelemetryTimelineCorrelation runs the fleet with the timeline on
// and asserts the tentpole contract: every session the plane decided is
// a correlated pair of spans — one on the device's lane, one on the
// verifier-plane lane — sharing the session key.
func TestTelemetryTimelineCorrelation(t *testing.T) {
	cfg := telemetryConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil || res.Telemetry.Timeline == nil {
		t.Fatal("Telemetry.Timeline not assembled")
	}
	tl := res.Telemetry.Timeline

	rep := res.Report
	decided := int(rep.Attested + rep.Rejected + rep.Refused)
	if got := tl.CorrelatedCount(); got != decided {
		t.Fatalf("CorrelatedCount = %d, want %d (every plane-decided session)", got, decided)
	}
	if len(tl.Sessions) != int(rep.Sessions) {
		t.Fatalf("Sessions = %d, want %d", len(tl.Sessions), rep.Sessions)
	}

	if len(tl.Lanes) != cfg.Devices+1 {
		t.Fatalf("lanes = %d, want %d (plane + devices)", len(tl.Lanes), cfg.Devices+1)
	}
	if tl.Lanes[0].Name != "verifier-plane" {
		t.Fatalf("lane 0 = %q, want verifier-plane", tl.Lanes[0].Name)
	}

	// Index spans by (lane, key) and check the pairing.
	spansIn := func(l trace.Lane) map[string]trace.ChromeSpan {
		m := make(map[string]trace.ChromeSpan)
		for _, s := range l.Spans {
			m[s.Name] = s
		}
		return m
	}
	planeSpans := spansIn(tl.Lanes[0])
	if len(planeSpans) != decided {
		t.Fatalf("plane spans = %d, want %d", len(planeSpans), decided)
	}
	pairs := 0
	for li := 1; li < len(tl.Lanes); li++ {
		device := strings.TrimPrefix(tl.Lanes[li].Name, "device/")
		for key, ds := range spansIn(tl.Lanes[li]) {
			ps, ok := planeSpans[key]
			if !ok {
				t.Fatalf("device span %q has no verifier-plane counterpart", key)
			}
			if ps.Start != ds.Start || ps.Dur != ds.Dur || ps.Subject != device {
				t.Fatalf("pair %q disagrees: plane %+v device %+v", key, ps, ds)
			}
			if !strings.HasPrefix(key, device+"#") {
				t.Fatalf("span key %q not keyed to device %q", key, device)
			}
			pairs++
		}
	}
	if pairs != decided {
		t.Fatalf("correlated pairs = %d, want %d", pairs, decided)
	}

	// The export round-trips through the Chrome reader.
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	lanes, err := trace.ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(lanes) != len(tl.Lanes) || lanes[0].Name != "verifier-plane" {
		t.Fatalf("round-trip lanes = %d (%q), want %d", len(lanes), lanes[0].Name, len(tl.Lanes))
	}
	if len(lanes[0].Spans) != decided {
		t.Fatalf("round-trip plane spans = %d, want %d", len(lanes[0].Spans), decided)
	}
}

// TestTelemetryTimelineDeterministic asserts every run of the same
// config, on either engine, produces byte-identical timelines and
// incident reports.
func TestTelemetryTimelineDeterministic(t *testing.T) {
	contract.Check(t, contract.Row{Name: "fleet-timeline", Axes: []contract.Axis{contract.Engine}, Produce: func(t *testing.T, _ contract.Point) []byte {
		res, err := Run(telemetryConfig())
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := res.Telemetry.Timeline.WriteChromeTrace(&out); err != nil {
			t.Fatal(err)
		}
		if err := WriteIncidents(&out, res.Telemetry.Incidents); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}})
}

// TestTelemetryZeroImpact asserts the zero-impact contract at the
// package level: report and event stream are byte-identical with the
// full telemetry stack on and off.
func TestTelemetryZeroImpact(t *testing.T) {
	cfg := telemetryConfig()
	cfg.CollectEvents = true
	contract.Check(t, fleetRow("fleet-telemetry", cfg, contract.Toggle("telemetry")))
}

// TestTelemetryFlightRecorder asserts the faulty device's recorder
// trips on its first quarantine refusal and freezes a window that ends
// at the triggering event, with the plane's decisions attached.
func TestTelemetryFlightRecorder(t *testing.T) {
	res, err := Run(telemetryConfig())
	if err != nil {
		t.Fatal(err)
	}
	incidents := res.Telemetry.Incidents
	if len(incidents) != 1 {
		t.Fatalf("incidents = %d, want 1 (the quarantined device)", len(incidents))
	}
	inc := incidents[0]
	if len(res.Report.QuarantinedNames) != 1 || inc.Device != res.Report.QuarantinedNames[0] {
		t.Fatalf("incident device %q, want quarantined %v", inc.Device, res.Report.QuarantinedNames)
	}
	if inc.Trigger != TriggerQuarantineRefusal {
		t.Fatalf("trigger = %q, want %q", inc.Trigger, TriggerQuarantineRefusal)
	}
	if len(inc.Window) == 0 {
		t.Fatal("frozen window is empty")
	}
	last := inc.Window[len(inc.Window)-1]
	if last.Kind != trace.KindSession || last.Cycle != inc.Cycle {
		t.Fatalf("window does not end at the trigger: %s (trigger cycle %d)", last.String(), inc.Cycle)
	}
	if ph, _ := attr(last, "phase"); ph != "refused" {
		t.Fatalf("triggering event phase = %q, want refused", ph)
	}
	if len(inc.Plane) == 0 {
		t.Fatal("no plane decisions attached to the incident")
	}
	for _, e := range inc.Plane {
		if e.Subject != inc.Device {
			t.Fatalf("plane decision about %q attached to incident for %q", e.Subject, inc.Device)
		}
	}
}

// TestRecorderTriggers drives a recorder directly: the first trigger
// freezes the window, later triggers and events do not re-freeze.
func TestRecorderTriggers(t *testing.T) {
	r := NewRecorder("dev-x", 4)
	for i := uint64(1); i <= 3; i++ {
		r.Emit(trace.Event{Cycle: i, Kind: trace.KindTick, Subject: "dev-x"})
	}
	if r.Tripped() {
		t.Fatal("tripped before any trigger")
	}
	r.Emit(trace.Event{Cycle: 10, Kind: trace.KindUpdateRolledBack, Subject: "dev-x"})
	if !r.Tripped() {
		t.Fatal("rollback did not trip")
	}
	// A later, different trigger must not replace the frozen window.
	r.Emit(trace.Event{Cycle: 20, Kind: trace.KindSLOViolation, Subject: "dev-x"})
	inc, ok := r.Incident(nil)
	if !ok {
		t.Fatal("no incident after trip")
	}
	if inc.Trigger != TriggerUpdateRollback || inc.Cycle != 10 {
		t.Fatalf("incident = %q@%d, want %q@10", inc.Trigger, inc.Cycle, TriggerUpdateRollback)
	}
	if n := len(inc.Window); n != 4 {
		t.Fatalf("window = %d events, want 4 (ring capacity)", n)
	}
	if got := inc.Window[len(inc.Window)-1].Cycle; got != 10 {
		t.Fatalf("window ends at cycle %d, want 10", got)
	}
}

// TestFleetMetricsExposition builds a plane over a registry holding an
// adversarial device name and an adversarial provider, feeds it a
// session, and asserts the Prometheus exposition stays well-formed:
// label values escaped, one header per family, histogram present. A
// device registered after the first export appears in the next.
func TestFleetMetricsExposition(t *testing.T) {
	const evilDevice = "dev\"quote\\back\nline"
	const evilProvider = "oem\"prov\n"
	v := trusted.NewVerifier(core.DevKey, evilProvider)
	client := remote.NewClient(v, evilProvider, remote.ClientOptions{})
	reg := NewRegistry(2)
	reg.Register(evilDevice)
	p := NewPlane(PlaneConfig{Client: client, Registry: reg, Listeners: 2})
	p.ObserveSessionCycles([]uint64{12_000, 300_000})

	var buf bytes.Buffer
	if err := p.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		`tytan_fleet_device_state{device="dev\"quote\\back\nline"} 0`,
		`tytan_fleet_provider_info{provider="oem\"prov\n"} 1`,
		`tytan_fleet_sessions{outcome="attested"} 0`,
		`tytan_fleet_cache{result="miss"} 0`,
		`tytan_fleet_devices{state="healthy"} 1`,
		`tytan_fleet_session_cycles_bucket{le="25000"} 1`,
		`tytan_fleet_session_cycles_bucket{le="+Inf"} 2`,
		`tytan_fleet_session_cycles_count 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Raw (unescaped) adversarial bytes must not appear: every newline
	// in the output ends a complete line, never splits a label value.
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Errorf("malformed exposition line (no value): %q", line)
		}
	}
	if n := strings.Count(out, "# TYPE tytan_fleet_sessions "); n != 1 {
		t.Errorf("TYPE tytan_fleet_sessions appears %d times, want 1", n)
	}
	if n := strings.Count(out, "# TYPE tytan_fleet_device_state "); n != 1 {
		t.Errorf("TYPE tytan_fleet_device_state appears %d times, want 1", n)
	}

	// A device enrolled after an export gets its row in the next one.
	reg.Register("dev-late")
	buf.Reset()
	if err := p.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`tytan_fleet_device_state{device="dev-late"} 0`,
		`tytan_fleet_devices{state="healthy"} 2`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("export after late enrollment missing %q\n%s", want, buf.String())
		}
	}
}

// TestFleetMetricsEndToEnd runs the fleet with metrics on and checks
// the exported registry reflects the run's deterministic totals.
func TestFleetMetricsEndToEnd(t *testing.T) {
	res, err := Run(telemetryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry.Metrics == nil {
		t.Fatal("Telemetry.Metrics not assembled")
	}
	var buf bytes.Buffer
	if err := res.Telemetry.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	rep := res.Report
	for _, want := range []string{
		"tytan_fleet_sessions{outcome=\"attested\"} " + uitoa(rep.Attested),
		"tytan_fleet_sessions{outcome=\"rejected\"} " + uitoa(rep.Rejected),
		"tytan_fleet_sessions{outcome=\"refused\"} " + uitoa(rep.Refused),
		"tytan_fleet_devices{state=\"quarantined\"} 1",
		"tytan_fleet_session_cycles_count " + uitoa(uint64(rep.SessionE2E.Count)),
		"tytan_fleet_session_cycles_sum " + uitoa(rep.SessionE2E.Sum),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The histogram reads the report's samples, not the timeline: a
	// metrics-only run of the same seed exports the same lines.
	cfg := telemetryConfig()
	cfg.Telemetry = TelemetryConfig{Metrics: true}
	alone, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if alone.Telemetry.Timeline != nil {
		t.Error("metrics-only run assembled a timeline")
	}
	var aloneBuf bytes.Buffer
	if err := alone.Telemetry.Metrics.WritePrometheus(&aloneBuf); err != nil {
		t.Fatal(err)
	}
	if got, want := sessionCycleLines(aloneBuf.String()), sessionCycleLines(out); got != want || want == "" {
		t.Errorf("metrics-only histogram:\n%s\nwant (timeline on):\n%s", got, want)
	}
}

// TestFleetMetricsCheck pins the metrics exposition: like the report,
// it is a function of the config alone, the same bytes however the
// shards and acceptors are scheduled.
func TestFleetMetricsCheck(t *testing.T) {
	contract.Check(t, contract.Row{Name: "fleet-metrics", Axes: []contract.Axis{contract.Over("shards/listeners", "3/2", "8/6")}, Produce: func(t *testing.T, at contract.Point) []byte {
		cfg := telemetryConfig()
		fmt.Sscanf(at["shards/listeners"], "%d/%d", &cfg.Shards, &cfg.Listeners)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := res.Telemetry.Metrics.WritePrometheus(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}})
}

func uitoa(n uint64) string { return strconv.FormatUint(n, 10) }

// sessionCycleLines returns the exposition's session-duration histogram
// lines.
func sessionCycleLines(exposition string) string {
	var out strings.Builder
	for _, line := range strings.SplitAfter(exposition, "\n") {
		if strings.Contains(line, "tytan_fleet_session_cycles") {
			out.WriteString(line)
		}
	}
	return out.String()
}
