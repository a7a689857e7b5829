// Command tytan-fleet runs the fleet-scale attestation service: N
// deterministic simulated TyTAN devices, booted in a sharded worker
// pool, each attesting against one concurrent verifier plane with an
// appraisal cache and a quarantine registry (internal/fleet).
//
// The run is seed-deterministic: every report line is a pure function
// of the flags, so the same invocation renders byte-identical output
// no matter how the shards and acceptors are scheduled. The telemetry
// flags are observational only — they never change the report or the
// event stream (the TestFleetTraceCheck contract) — and their exports
// are deterministic too: -trace, -metrics and -flight write the same
// bytes for the same flags.
//
// Usage:
//
//	tytan-fleet                          # 1000 devices, 2 rounds
//	tytan-fleet -devices 200 -faulty 5   # five devices on unpublished builds
//	tytan-fleet -trace fleet.json        # correlated multi-lane Chrome timeline
//	tytan-fleet -metrics - -flight -     # Prometheus exposition + incident report
//
// Host-clock throughput and the telemetry overhead are measured by the
// benchmark runner under bench/ (its fleet and fleet-telemetry
// workloads), never by this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/fleet"
)

// flightWindow is the per-device flight-recorder capacity the -flight
// flag attaches.
const flightWindow = 64

type config struct {
	fleet.Config
	outPath     string
	tracePath   string
	metricsPath string
	flightPath  string
}

func main() {
	var cfg config
	flag.IntVar(&cfg.Devices, "devices", 1000, "fleet size")
	flag.IntVar(&cfg.Rounds, "rounds", 2, "attestation rounds per device")
	flag.IntVar(&cfg.Shards, "shards", 0, "device worker-pool size (0 = default)")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "seed for variant assignment and faulty-device selection")
	flag.IntVar(&cfg.Variants, "variants", 0, "published firmware builds (0 = default)")
	flag.IntVar(&cfg.Faulty, "faulty", 0, "devices running an unpublished build")
	flag.IntVar(&cfg.MaxFailures, "max-failures", 0, "appraisal failures before quarantine (0 = default)")
	flag.IntVar(&cfg.Listeners, "listeners", 0, "plane acceptor-pool size (0 = default)")
	flag.BoolVar(&cfg.CollectEvents, "observe", true, "measure attestation round trips in device cycles")
	flag.StringVar(&cfg.outPath, "o", "-", `write the text report to this file ("-" = stdout)`)
	flag.StringVar(&cfg.tracePath, "trace", "", `write the correlated fleet timeline as multi-lane Chrome trace JSON to this file ("-" = stdout)`)
	flag.StringVar(&cfg.metricsPath, "metrics", "", `write the fleet Prometheus exposition to this file ("-" = stdout)`)
	flag.StringVar(&cfg.flightPath, "flight", "", `attach per-device flight recorders and write the incident report to this file ("-" = stdout)`)
	flag.Parse()

	if err := runFleet(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tytan-fleet:", err)
		os.Exit(1)
	}
}

// writeTo runs write against the named destination ("-" = stdout).
func writeTo(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runFleet(cfg config, stdout io.Writer) error {
	cfg.Telemetry = fleet.TelemetryConfig{
		Timeline: cfg.tracePath != "",
		Metrics:  cfg.metricsPath != "",
	}
	if cfg.flightPath != "" {
		cfg.Telemetry.FlightSize = flightWindow
	}
	res, err := fleet.Run(cfg.Config)
	if err != nil {
		return err
	}
	err = writeTo(cfg.outPath, stdout, func(w io.Writer) error {
		res.Report.WriteText(w)
		return nil
	})
	if err != nil {
		return fmt.Errorf("-o: %w", err)
	}
	return writeTelemetry(cfg, res, stdout)
}

// writeTelemetry renders the requested telemetry products.
func writeTelemetry(cfg config, res *fleet.Result, stdout io.Writer) error {
	tel := res.Telemetry
	if tel == nil {
		return nil
	}
	if cfg.tracePath != "" {
		if err := writeTo(cfg.tracePath, stdout, tel.Timeline.WriteChromeTrace); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
	}
	if cfg.metricsPath != "" {
		if err := writeTo(cfg.metricsPath, stdout, tel.Metrics.WritePrometheus); err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
	}
	if cfg.flightPath != "" {
		err := writeTo(cfg.flightPath, stdout, func(w io.Writer) error {
			return fleet.WriteIncidents(w, tel.Incidents)
		})
		if err != nil {
			return fmt.Errorf("-flight: %w", err)
		}
	}
	return nil
}
