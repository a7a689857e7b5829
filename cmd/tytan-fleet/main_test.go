package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/contract"
	"repro/internal/fleet"
)

// fleetTraceConfig is the gate's fleet: big enough to exercise
// quarantine refusals and cache sharing, small enough to run three
// times under -race.
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

// TestFleetTraceCheck is the fleet telemetry gate: telemetry is
// zero-impact and itself deterministic, in three fleet runs.
//
//  1. The "fleet-report" row runs telemetry on, off, then on again: the
//     report and event stream are byte-identical.
//  2. The "fleet-timeline" row renders the correlated timeline and the
//     incident report of the two telemetry-on runs: byte-identical.
func TestFleetTraceCheck(t *testing.T) {
	var on []*fleet.Result
	report := func(t *testing.T, at contract.Point) []byte {
		cfg := fleetTraceConfig().Config
		if at.On("telemetry") {
			cfg.Telemetry = fleet.TelemetryConfig{Timeline: true, Metrics: true, FlightSize: 64}
		}
		res, err := fleet.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if at.On("telemetry") {
			on = append(on, res)
		} else if res.Telemetry != nil {
			t.Error("telemetry products assembled with telemetry off")
		}
		out := []byte(res.Report.Text())
		for _, e := range res.Events {
			out = append(out, e.String()+"\n"...)
		}
		return out
	}
	timeline := func(t *testing.T, _ contract.Point) []byte {
		res := on[0]
		on = on[1:]
		var out bytes.Buffer
		if err := res.Telemetry.Timeline.WriteChromeTrace(&out); err != nil {
			t.Fatal(err)
		}
		if err := fleet.WriteIncidents(&out, res.Telemetry.Incidents); err != nil {
			t.Fatal(err)
		}
		// The timeline correlates every plane-decided session, and the
		// quarantined device tripped its flight recorder.
		decided := int(res.Report.Attested + res.Report.Rejected + res.Report.Refused)
		if got := res.Telemetry.Timeline.CorrelatedCount(); got != decided {
			t.Errorf("correlated sessions = %d, want %d", got, decided)
		}
		if len(res.Telemetry.Incidents) != 1 {
			t.Errorf("incidents = %d, want 1", len(res.Telemetry.Incidents))
		}
		return out.Bytes()
	}
	contract.Check(t,
		contract.Row{Name: "fleet-report", Axes: []contract.Axis{contract.Over("telemetry", "on", "off")}, Produce: report},
		contract.Row{Name: "fleet-timeline", Produce: timeline})
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
