package fleet

import (
	"runtime"
	"testing"
)

// telemetryBytesPerSession is the host-allocation budget of one
// attestation session in a telemetry run: 1.5× the 10.7 KB per session
// measured for allocTestConfig (linux/amd64, Go 1.24), against 22.7 KB
// before the chunked event buffer, the attr arena, the on-demand
// platform metrics and the pooled machine tables.
const telemetryBytesPerSession = 16_000

// allocTestConfig is a small fleet with every telemetry product on.
func allocTestConfig() Config {
	return Config{
		Devices: 32, Rounds: 5, Faulty: 1, Shards: 2, Listeners: 2, Seed: 1,
		Telemetry: TelemetryConfig{Timeline: true, Metrics: true, FlightSize: 64},
	}
}

// TestTelemetryAllocBudget: a telemetry run stays within its
// bytes-per-session budget, read from runtime.MemStats.TotalAlloc
// around the second of two identical runs (the first fills the
// machine pools). The race detector makes sync.Pool drop a share of
// what it is given, so every dropped RAM buffer is 2 MiB allocated
// again; the budget is not checked there.
func TestTelemetryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled RAM at random under the race detector")
	}
	cfg := allocTestConfig()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perSession := (after.TotalAlloc - before.TotalAlloc) / res.Report.Sessions
	if perSession > telemetryBytesPerSession {
		t.Errorf("telemetry run allocated %d B per session, budget %d B", perSession, telemetryBytesPerSession)
	}
}
