package fleet

import "repro/internal/trace"

// Metrics builds the plane's Prometheus registry, a fresh one on every
// call: session-outcome and appraisal-cache counters, registry census
// gauges per device state, one state gauge per registered device, and
// the two session-duration histograms (device cycles — deterministic,
// fed via ObserveSessionCycles — and host ns, fed live when a Clock is
// set).
//
// Gauges are the counts read at the call, so serving /metrics costs the
// attestation path nothing and every device registered by then has its
// row. Device and provider names flow into label values and are
// escaped by the exposition writer; an adversarial name cannot corrupt
// the scrape.
func (p *Plane) Metrics() *trace.Registry {
	r := trace.NewRegistry()

	attested, rejected, refused, errored := p.Counts()
	const sessionsHelp = "completed attestation sessions by outcome"
	r.Gauge("tytan_fleet_sessions", sessionsHelp, attested, trace.Label{Key: "outcome", Value: "attested"})
	r.Gauge("tytan_fleet_sessions", sessionsHelp, rejected, trace.Label{Key: "outcome", Value: "rejected"})
	r.Gauge("tytan_fleet_sessions", sessionsHelp, refused, trace.Label{Key: "outcome", Value: "refused"})
	r.Gauge("tytan_fleet_sessions", sessionsHelp, errored, trace.Label{Key: "outcome", Value: "errored"})

	hits, misses := p.cache.Counts()
	const cacheHelp = "appraisal cache lookups (hit ratio = hit / (hit + miss))"
	r.Gauge("tytan_fleet_cache", cacheHelp, hits, trace.Label{Key: "result", Value: "hit"})
	r.Gauge("tytan_fleet_cache", cacheHelp, misses, trace.Label{Key: "result", Value: "miss"})

	healthy, suspect, quarantined := p.reg.Counts()
	const devicesHelp = "registry census by device state"
	r.Gauge("tytan_fleet_devices", devicesHelp, uint64(healthy), trace.Label{Key: "state", Value: "healthy"})
	r.Gauge("tytan_fleet_devices", devicesHelp, uint64(suspect), trace.Label{Key: "state", Value: "suspect"})
	r.Gauge("tytan_fleet_devices", devicesHelp, uint64(quarantined), trace.Label{Key: "state", Value: "quarantined"})

	// One state-code gauge per registered device (0=healthy 1=suspect
	// 2=quarantined). The snapshot is sorted, so the exposition order is
	// deterministic.
	for _, d := range p.reg.Snapshot() {
		r.Gauge("tytan_fleet_device_state",
			"per-device registry state (0=healthy 1=suspect 2=quarantined)",
			uint64(d.State), trace.Label{Key: "device", Value: d.Name})
	}

	r.Gauge("tytan_fleet_provider_info",
		"constant 1; the provider label names the plane's verification key",
		1, trace.Label{Key: "provider", Value: p.client.Provider()})

	r.AttachHistogram("tytan_fleet_session_cycles",
		"end-to-end session duration in device cycles (hello to verdict, device side)",
		p.sessionCycles)
	r.AttachHistogram("tytan_fleet_session_host_ns",
		"per-session verification-path host time in nanoseconds (benchmark clock only)",
		p.sessionHostNS)
	return r
}
