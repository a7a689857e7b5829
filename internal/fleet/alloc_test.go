package fleet

import (
	"runtime"
	"testing"
)

// telemetryBytesPerSession is the host-allocation budget of one
// attestation session in a telemetry run: 1.5× the 9.93 KB per session
// measured for allocTestConfig (linux/amd64, Go 1.24). It was 10.7 KB
// before the one-pass device scan, the wire emitters' attr arenas and
// the bracket-based timeline, and 22.7 KB before the chunked event
// buffer, the machine's attr arena, the on-demand platform metrics and
// the pooled machine tables.
const telemetryBytesPerSession = 14_900

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
// machine pools). A failure also reports the run's mallocs per session
// and how many collections ran during it: a fresh 2 MiB machine RAM
// buffer adds ~13 KB per session but a single malloc, while garbage
// from something else running in the process shows as extra mallocs.
func TestTelemetryAllocBudget(t *testing.T) {
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
	sessions := res.Report.Sessions
	perSession := (after.TotalAlloc - before.TotalAlloc) / sessions
	if perSession > telemetryBytesPerSession {
		t.Errorf("telemetry run allocated %d B per session, budget %d B (%.1f mallocs per session, %d GCs during the run)",
			perSession, telemetryBytesPerSession,
			float64(after.Mallocs-before.Mallocs)/float64(sessions), after.NumGC-before.NumGC)
	}
}
