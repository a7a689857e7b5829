package fleet

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/analyze"
)

// DeviceOutcome is one device's row in the report: its build, its
// final registry record, and its own view of the rounds.
type DeviceOutcome struct {
	// Name is the device name.
	Name string
	// Variant is the firmware build index; Faulty marks an unpublished
	// build.
	Variant int
	Faulty  bool
	// State, Passes, Failures, Refusals are the final registry record.
	Device Device
	// OK, Denied, Refused, Errored are the device-side session outcomes.
	OK, Denied, Refused, Errored int
}

// Report is the deterministic summary of a fleet run: every field is a
// pure function of the Config (no host time, no map order, no
// goroutine interleaving).
type Report struct {
	// Config echo.
	Devices, Rounds, Variants, Faulty, MaxFailures, Shards, Listeners int
	Seed                                                              uint64
	Provider                                                          string

	// Plane session totals.
	Sessions, Attested, Rejected, Refused, Errored uint64

	// Appraisal-cache totals.
	CacheHits, CacheMisses uint64

	// Final registry census.
	Healthy, Suspect, Quarantined int
	// QuarantinedNames lists the quarantined devices, sorted.
	QuarantinedNames []string

	// Anomalies lists every device that ever failed an appraisal or was
	// refused, sorted by name.
	Anomalies []DeviceOutcome

	// AttestRTT summarizes attestation round-trip spans in device
	// cycles, pooled across the fleet (zero unless Config.Observe).
	AttestRTT analyze.Stats

	// SessionE2E summarizes whole-session latency in device cycles —
	// hello sent to verdict received, the device-side KindSession
	// bracket — pooled across the fleet (zero unless Config.Observe).
	// Derived from the event stream, so it is identical whether the
	// telemetry products are assembled or not.
	SessionE2E analyze.Stats
}

// buildReport derives the deterministic summary from the plane state
// and the per-device results.
func buildReport(cfg Config, plane *Plane, results []deviceResult) Report {
	rep := Report{
		Devices: cfg.Devices, Rounds: cfg.Rounds, Variants: cfg.Variants,
		Faulty: cfg.Faulty, MaxFailures: plane.Registry().MaxFailures(),
		Shards: cfg.Shards, Listeners: cfg.Listeners,
		Seed: cfg.Seed, Provider: cfg.Provider,
	}
	rep.Attested, rep.Rejected, rep.Refused, rep.Errored = plane.Counts()
	rep.Sessions = rep.Attested + rep.Rejected + rep.Refused + rep.Errored
	rep.CacheHits, rep.CacheMisses = plane.Cache().Counts()
	rep.Healthy, rep.Suspect, rep.Quarantined = plane.Registry().Counts()
	for _, d := range plane.Registry().Snapshot() {
		if d.State == DeviceQuarantined {
			rep.QuarantinedNames = append(rep.QuarantinedNames, d.Name)
		}
	}

	var pooled, pooledE2E []uint64
	for i := range results {
		r := &results[i]
		pooled = append(pooled, r.durations...)
		pooledE2E = append(pooledE2E, r.e2e...)
		d, _ := plane.Registry().Lookup(r.name)
		if d.Failures > 0 || d.Refusals > 0 || r.denied > 0 || r.refused > 0 || r.errored > 0 {
			rep.Anomalies = append(rep.Anomalies, DeviceOutcome{
				Name: r.name, Variant: r.variant, Faulty: r.faulty,
				Device: d, OK: r.ok, Denied: r.denied,
				Refused: r.refused, Errored: r.errored,
			})
		}
	}
	sort.Slice(rep.Anomalies, func(i, j int) bool {
		return rep.Anomalies[i].Name < rep.Anomalies[j].Name
	})
	slices.Sort(pooled)
	rep.AttestRTT = analyze.Summarize(pooled)
	slices.Sort(pooledE2E)
	rep.SessionE2E = analyze.Summarize(pooledE2E)
	return rep
}

// WriteText renders the report deterministically: same Config, same
// bytes, regardless of shard count or scheduling.
func (rep Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "fleet run: %d devices x %d rounds (seed %d, provider %q)\n",
		rep.Devices, rep.Rounds, rep.Seed, rep.Provider)
	fmt.Fprintf(w, "  builds: %d published, %d faulty devices; failure budget %d\n",
		rep.Variants, rep.Faulty, rep.MaxFailures)
	fmt.Fprintf(w, "  sessions: %d total = %d attested, %d rejected, %d refused, %d errored\n",
		rep.Sessions, rep.Attested, rep.Rejected, rep.Refused, rep.Errored)
	fmt.Fprintf(w, "  appraisal cache: %d hits, %d misses\n", rep.CacheHits, rep.CacheMisses)
	fmt.Fprintf(w, "  registry: %d healthy, %d suspect, %d quarantined\n",
		rep.Healthy, rep.Suspect, rep.Quarantined)
	if len(rep.QuarantinedNames) > 0 {
		fmt.Fprintf(w, "  quarantined: %s\n", strings.Join(rep.QuarantinedNames, ", "))
	}
	for _, a := range rep.Anomalies {
		build := fmt.Sprintf("build %d", a.Variant)
		if a.Faulty {
			build = fmt.Sprintf("unpublished build %d", a.Variant)
		}
		fmt.Fprintf(w, "  anomaly %s (%s): %s, %d passes %d failures %d refusals (device saw ok=%d denied=%d refused=%d errored=%d)\n",
			a.Name, build, a.Device.State, a.Device.Passes, a.Device.Failures,
			a.Device.Refusals, a.OK, a.Denied, a.Refused, a.Errored)
	}
	if rep.AttestRTT.Count > 0 {
		fmt.Fprintf(w, "  attest rtt (cycles): n=%d min=%d p50=%d p95=%d p99=%d max=%d\n",
			rep.AttestRTT.Count, rep.AttestRTT.Min, rep.AttestRTT.P50,
			rep.AttestRTT.P95, rep.AttestRTT.P99, rep.AttestRTT.Max)
	}
	if rep.SessionE2E.Count > 0 {
		fmt.Fprintf(w, "  session e2e (cycles): n=%d min=%d p50=%d p95=%d p99=%d max=%d\n",
			rep.SessionE2E.Count, rep.SessionE2E.Min, rep.SessionE2E.P50,
			rep.SessionE2E.P95, rep.SessionE2E.P99, rep.SessionE2E.Max)
	}
}

// Text renders the report to a string.
func (rep Report) Text() string {
	var b strings.Builder
	rep.WriteText(&b)
	return b.String()
}
