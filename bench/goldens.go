package main

import "repro/internal/benchlab"

// Exact guest goldens. Guest cycles are platform independent (TyTAN
// §6 reports cycles for that reason), so a run that does not reproduce
// them is a failed op, never a speed change.

// useCaseGolden is one Table 1 run: activation rates per phase
// (before, while, after loading t2), the load's work and elapsed
// cycles, and the whole run's guest instructions and cycles.
var useCaseGolden = benchlab.UseCaseResult{
	RateT0:            [3]float64{1.5234375, 1.4228706698078983, 1.5234375},
	RateT1:            [3]float64{1.5234375, 1.4228706698078983, 1.5234375},
	RateT2:            [3]float64{0, 0.03387787309066424, 1.5},
	LoadWorkCycles:    1_311_021,
	LoadElapsedCycles: 1_415_040,
	MaxGapDuringLoad:  36_039,
	Missed:            0,
	Instructions:      3_278,
	TotalCycles:       5_947_798,
}

// fleetGolden is one fleet repetition, at any seed: the faulty devices
// each fail 3 appraisals, then are refused for their 17 remaining
// rounds; every other session attests.
var fleetGolden = fleetDigest{
	Attested: 5_040, Rejected: 12, Refused: 68,
	CacheHits: 5_048, CacheMisses: 4,
}

// fleetTelemetryGolden adds the device-cycle latencies observability
// measures: attestation round trip and whole session, p50 and p99.
var fleetTelemetryGolden = fleetDigest{
	Attested: 5_040, Rejected: 12, Refused: 68,
	CacheHits: 5_048, CacheMisses: 4,
	AttestRTTP50: 7_872, AttestRTTP99: 17_072,
	SessionE2EP50: 7_872, SessionE2EP99: 17_072,
}

// kernelGolden is one kernel pass.
var kernelGolden = kernelDigest{
	Sum:          400_080_000,
	Cycles:       580_005,
	Instructions: 320_004,
	Violations:   0,
}
