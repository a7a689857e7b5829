package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// fleetTraceConfig is the gate's fleet: big enough to exercise
// quarantine refusals and cache sharing, small enough to run twice
// under -race in CI.
func fleetTraceConfig() config {
	var cfg config
	cfg.Devices = 12
	cfg.Rounds = 4
	cfg.Seed = 11
	cfg.Variants = 2
	cfg.Faulty = 1
	cfg.MaxFailures = 2
	cfg.CollectEvents = true
	return cfg
}

func readFile(path string) (string, error) {
	blob, err := os.ReadFile(path)
	return string(blob), err
}

// TestFleetTraceCheck is the `make fleet-trace-check` gate: fleet
// telemetry is zero-impact and itself deterministic.
//
//  1. Telemetry on vs off: the deterministic report and event stream
//     are byte-identical.
//  2. Telemetry on, run twice: the correlated timeline, the incident
//     report and the report are byte-identical across runs.
func TestFleetTraceCheck(t *testing.T) {
	base := fleetTraceConfig()

	run := func(telemetry bool) (*fleet.Result, string, string) {
		cfg := base.Config
		if telemetry {
			cfg.Telemetry = fleet.TelemetryConfig{Timeline: true, Metrics: true, FlightSize: 64}
		}
		res, err := fleet.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var events strings.Builder
		for _, e := range res.Events {
			events.WriteString(e.String())
			events.WriteByte('\n')
		}
		return res, res.Report.Text(), events.String()
	}

	resOff, repOff, evOff := run(false)
	resOn1, repOn1, evOn1 := run(true)
	_, repOn2, evOn2 := run(true)

	// Zero impact: telemetry must not perturb the deterministic outputs.
	if repOn1 != repOff {
		t.Errorf("telemetry changed the report:\n--- off\n%s\n--- on\n%s", repOff, repOn1)
	}
	if evOn1 != evOff {
		t.Error("telemetry changed the event stream")
	}
	if resOff.Telemetry != nil {
		t.Error("telemetry products assembled with telemetry off")
	}

	// Telemetry determinism: same config, same bytes.
	if repOn1 != repOn2 || evOn1 != evOn2 {
		t.Error("telemetry-on runs disagree on report or events")
	}
	renderTel := func(res *fleet.Result) (string, string) {
		var tr, inc bytes.Buffer
		if err := res.Telemetry.Timeline.WriteChromeTrace(&tr); err != nil {
			t.Fatal(err)
		}
		if err := fleet.WriteIncidents(&inc, res.Telemetry.Incidents); err != nil {
			t.Fatal(err)
		}
		return tr.String(), inc.String()
	}
	resOn2, _, _ := run(true)
	tr1, inc1 := renderTel(resOn1)
	tr2, inc2 := renderTel(resOn2)
	if tr1 != tr2 {
		t.Error("timelines differ between identical telemetry runs")
	}
	if inc1 != inc2 {
		t.Errorf("incident reports differ between identical telemetry runs:\n--- run 1\n%s\n--- run 2\n%s", inc1, inc2)
	}

	// The timeline correlates every plane-decided session.
	decided := int(resOn1.Report.Attested + resOn1.Report.Rejected + resOn1.Report.Refused)
	if got := resOn1.Telemetry.Timeline.CorrelatedCount(); got != decided {
		t.Errorf("correlated sessions = %d, want %d", got, decided)
	}
	// The quarantined device tripped its flight recorder.
	if len(resOn1.Telemetry.Incidents) != 1 {
		t.Errorf("incidents = %d, want 1", len(resOn1.Telemetry.Incidents))
	}
}

// TestFleetCLITelemetryFlags drives runFleet end to end with all three
// telemetry flags pointed at files plus -o, and checks each product
// landed.
func TestFleetCLITelemetryFlags(t *testing.T) {
	dir := t.TempDir()
	cfg := fleetTraceConfig()
	cfg.outPath = dir + "/report.txt"
	cfg.tracePath = dir + "/timeline.json"
	cfg.metricsPath = dir + "/metrics.prom"
	cfg.flightPath = dir + "/incidents.txt"

	var stdout bytes.Buffer
	if err := runFleet(cfg, &stdout); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty with every output redirected: %q", stdout.String())
	}
	reads := map[string]string{
		cfg.outPath:     "fleet run:",
		cfg.tracePath:   `"layout":"fleet-lanes"`,
		cfg.metricsPath: "# TYPE tytan_fleet_sessions gauge",
		cfg.flightPath:  "trigger quarantine-refusal",
	}
	for path, want := range reads {
		blob, err := readFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !strings.Contains(blob, want) {
			t.Errorf("%s missing %q:\n%.400s", path, want, blob)
		}
	}
}
