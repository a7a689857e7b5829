package benchlab

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/analyze"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/loader"
	"repro/internal/rtos"
	"repro/internal/sha1"
	"repro/internal/sverify"
	"repro/internal/telf"
	"repro/internal/trace"
	"repro/internal/trusted"
)

// The update scenario matrix: a declarative set of named secure-update
// robustness scenarios, each run across a fixed seed matrix with a
// per-scenario SLO evaluated over the platform's own event stream. The
// matrix is the PR-gate proof behind the secure update service's
// claims:
//
//   - an update under scheduling load never costs the app a deadline;
//   - an update lands cleanly while a fault injector hammers a
//     neighbouring task and the kernel with IRQ storms;
//   - downgrades, corrupt images and forged signatures are refused
//     without burning the version counter or touching the old task;
//   - a simulated power failure at EVERY swap phase leaves the old
//     version running, attestable, and updatable afterwards;
//   - an update to a quarantined identity is refused;
//   - fleet telemetry under quarantine chaos is zero-impact and every
//     session correlates across the device/verifier time domains;
//   - the trust anchor holds under bit flips, IRQ storms, a rogue
//     isolation probe and a faulty attestation link (the chaos run).
//
// Every cell is deterministic: two runs of the matrix produce
// byte-identical text reports (TestScenarioCheck asserts exactly that,
// on both engines, under the race detector).

// scenarioSeeds is the fixed seed matrix for scenario cells.
var scenarioSeeds = []uint64{1, 7, 42, 0x539, 0xdeadbeef}

// ScenarioSeeds returns the seed matrix (first two in short mode).
func ScenarioSeeds(short bool) []uint64 {
	if short {
		return scenarioSeeds[:2]
	}
	return scenarioSeeds
}

// appV1Src / appV2Src are the two releases of the updated task. Same
// task name, different text — distinct measured identities.
const appV1Src = `
.task "app"
.entry main
.stack 128
.bss 28
.text
main:
    ldi32 r0, 31200
    svc 2
    jmp main
`

const appV2Src = `
.task "app"
.entry main
.stack 128
.bss 28
.text
main:
    ldi32 r0, 33000
    svc 2
    jmp main
`

// bgSrc is scheduling load: a lower-priority task that alternates a
// busy loop with short sleeps.
const bgSrc = `
.task "bg"
.entry main
.stack 128
.bss 28
.text
main:
    ldi r2, 0
spin:
    addi r2, 1
    cmpi r2, 400
    bne spin
    ldi32 r0, 9000
    svc 2
    jmp main
`

// Scenario is one named robustness scenario. Run drives the platform
// through the scenario and returns nil when every scenario-specific
// invariant held; SLO is evaluated afterwards over the cell's full
// event stream.
type Scenario struct {
	Name string
	// Gloss is the one-line description shown in the report.
	Gloss string
	// SLO is an analyze spec (one rule per line) evaluated over the
	// cell's event stream after Run returns.
	SLO string
	Run func(*ScenarioEnv) error
}

// ScenarioEnv is the per-cell harness handed to a scenario's Run.
type ScenarioEnv struct {
	// Seed drives every seed-dependent choice of the cell.
	Seed uint64

	// P is the platform, set by boot. Obs is its observability handle —
	// always enabled, so the SLO has a stream to judge.
	P   *core.Platform
	Obs *core.Obs

	// unobserved makes boot leave observability off, for the chaos
	// observability contract's control run; a cell without events
	// fails its SLO.
	unobserved bool

	// adopted is an event stream the scenario hands over for SLO
	// evaluation when the cell has no single platform (the fleet sweep
	// runs many platforms plus a verifier plane).
	adopted []trace.Event

	notes []string
}

// Notef records a deterministic line for the cell report.
func (e *ScenarioEnv) Notef(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// AdoptEvents hands the cell a deterministic event stream to judge the
// SLO over, for scenarios that run their own harness instead of (or in
// addition to) the env's single platform.
func (e *ScenarioEnv) AdoptEvents(evs []trace.Event) {
	e.adopted = append(e.adopted, evs...)
}

// boot builds the cell's platform (provider "oem", observability on
// unless the env is unobserved).
func (e *ScenarioEnv) boot(opt core.Options) error {
	if opt.Provider == "" {
		opt.Provider = "oem"
	}
	p, err := core.NewPlatform(opt)
	if err != nil {
		return err
	}
	e.P = p
	if !e.unobserved {
		e.Obs = p.EnableObservability()
	}
	return nil
}

// load assembles and loads a task source.
func (e *ScenarioEnv) load(src string, prio int) (*rtos.TCB, sha1.Digest, error) {
	im, err := asm.Assemble(src)
	if err != nil {
		return nil, sha1.Digest{}, err
	}
	return e.P.LoadTaskSync(im, core.Secure, prio)
}

// signed assembles src and signs it as an update package at version v.
func (e *ScenarioEnv) signed(src string, v uint64) ([]byte, error) {
	im, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	return e.P.SignUpdate(im, v)
}

// until runs the platform in chaosSlice steps until cond holds or the
// cycle bound passes.
func (e *ScenarioEnv) until(bound uint64, cond func() bool) error {
	limit := e.P.Cycles() + bound
	for e.P.Cycles() < limit {
		if cond() {
			return nil
		}
		if err := e.P.Run(chaosSlice); err != nil {
			return err
		}
	}
	if cond() {
		return nil
	}
	return fmt.Errorf("condition not reached within %d cycles", bound)
}

// attest quotes a task in-band and verifies the quote out of band
// against the expected identity — "the device still proves what it
// runs" in one call.
func (e *ScenarioEnv) attest(id rtos.TaskID, identity sha1.Digest, nonce uint64) error {
	q, err := e.P.Provider("oem").Quote(id, nonce)
	if err != nil {
		return fmt.Errorf("quote: %w", err)
	}
	return e.P.Provider("oem").Verifier().Verify(q, identity, nonce)
}

// alive reports whether the task is still live (has not exited).
func (e *ScenarioEnv) alive(id rtos.TaskID) bool {
	_, gone := e.P.K.ExitInfo(id)
	return !gone
}

// UpdateScenarios returns the scenario set, in report order.
func UpdateScenarios() []Scenario {
	return []Scenario{
		{
			Name:  "update-under-load",
			Gloss: "signed update mid-run with background load; app never misses a deadline",
			SLO:   "deadline_miss == 0",
			Run:   scenarioUpdateUnderLoad,
		},
		{
			Name:  "update-with-faults",
			Gloss: "update accepted while bit flips and IRQ storms hit a neighbour; trusted regions intact",
			SLO:   "deadline_miss == 0",
			Run:   scenarioUpdateWithFaults,
		},
		{
			Name:  "downgrade-attack-refused",
			Gloss: "correctly signed older and equal versions refused by the sealed counter",
			SLO:   "eampu_violation == 0",
			Run:   scenarioDowngradeRefused,
		},
		{
			Name:  "corrupt-image-refused",
			Gloss: "payload, digest, MAC and truncation corruption each refused with a typed reason",
			SLO:   "eampu_violation == 0",
			Run:   scenarioCorruptRefused,
		},
		{
			Name:  "power-fail-mid-swap",
			Gloss: "power failure at every swap phase leaves the old version running and updatable",
			SLO:   "eampu_violation == 0",
			Run:   scenarioPowerFailMidSwap,
		},
		{
			Name:  "quarantined-device-refused",
			Gloss: "update to an identity the supervisor quarantined is refused",
			SLO:   "eampu_violation == 0",
			Run:   scenarioQuarantinedRefused,
		},
		{
			Name:  "bounded-task-admission",
			Gloss: "unbounded and over-budget images refused pre-load with typed reasons; the certified task runs in budget",
			SLO:   "eampu_violation == 0",
			Run:   scenarioBoundedTaskAdmission,
		},
		{
			Name:  "fleet-attestation-sweep",
			Gloss: "12-device fleet sweep; the one faulty device is quarantined mid-run, the rest attest every round",
			// One plane verdict/refusal per session, bounded device-side
			// round trips, and no integrity violations anywhere in the
			// fleet's combined event stream.
			SLO: "fleet_session == 48\nattest_rtt max <= 32000c\neampu_violation == 0",
			Run: scenarioFleetSweep,
		},
		{
			Name:  "observability-under-chaos",
			Gloss: "fleet telemetry under quarantine chaos: every session correlates across domains, zero impact on the run",
			// Every one of the 50 sessions must reconstruct as a
			// cross-domain fleet_e2e span (device hello → close,
			// correlated with the plane's verdict by session key), with
			// bounded end-to-end latency and a clean integrity record.
			SLO: "fleet_e2e == 50\nfleet_e2e p99 <= 40000c\neampu_violation == 0",
			Run: scenarioObservabilityUnderChaos,
		},
		{
			Name:  "chaos",
			Gloss: "bit flips, IRQ storms, a rogue probe and a faulty attestation link; trust anchor intact, victim live, rogue quarantined",
			SLO:   chaosSLO,
			Run:   func(e *ScenarioEnv) error { return runChaos(e, faultinject.AllClasses) },
		},
	}
}

// scenarioObservabilityUnderChaos runs the fleet with the full
// telemetry stack on — correlated timeline, Prometheus registry,
// per-device flight recorders — while one device burns its appraisal
// budget and is quarantined mid-run. The telemetry must be zero-impact
// (the deterministic report matches a telemetry-off run byte for
// byte), every plane-decided session must correlate across the two
// time domains, and exactly the quarantined device's flight recorder
// must trip. The cell adopts the fleet's combined event stream, so the
// SLO's fleet_e2e rules judge the cross-domain session spans.
func scenarioObservabilityUnderChaos(e *ScenarioEnv) error {
	cfg := fleet.Config{
		Devices: 10, Rounds: 5, Seed: e.Seed,
		Variants: 2, Faulty: 1, MaxFailures: 2,
		Telemetry: fleet.TelemetryConfig{Timeline: true, Metrics: true, FlightSize: 64},
	}
	res, err := fleet.Run(cfg)
	if err != nil {
		return err
	}
	off := cfg
	off.Telemetry = fleet.TelemetryConfig{}
	off.CollectEvents = true
	resOff, err := fleet.Run(off)
	if err != nil {
		return err
	}
	if res.Report.Text() != resOff.Report.Text() {
		return errors.New("telemetry perturbed the deterministic report")
	}
	rep := res.Report
	if rep.Errored != 0 {
		return fmt.Errorf("errored sessions = %d, want 0", rep.Errored)
	}
	decided := int(rep.Attested + rep.Rejected + rep.Refused)
	tl := res.Telemetry.Timeline
	if got := tl.CorrelatedCount(); got != decided {
		return fmt.Errorf("correlated sessions = %d, want %d (every plane-decided session)",
			got, decided)
	}
	if n := len(res.Telemetry.Incidents); n != 1 {
		return fmt.Errorf("flight incidents = %d, want 1 (the quarantined device)", n)
	}
	inc := res.Telemetry.Incidents[0]
	if inc.Trigger != fleet.TriggerQuarantineRefusal {
		return fmt.Errorf("incident trigger = %q, want %q", inc.Trigger, fleet.TriggerQuarantineRefusal)
	}
	if len(rep.QuarantinedNames) != 1 || inc.Device != rep.QuarantinedNames[0] {
		return fmt.Errorf("incident device %q, want quarantined %v", inc.Device, rep.QuarantinedNames)
	}
	e.AdoptEvents(res.Events)
	e.Notef("%d sessions all correlated across domains; telemetry on/off reports byte-identical", decided)
	e.Notef("flight recorder tripped on %s (%s): window %d events, %d plane decisions attached",
		inc.Device, inc.Trigger, len(inc.Window), len(inc.Plane))
	return nil
}

// scenarioFleetSweep runs the fleet attestation service end to end: 12
// devices x 4 rounds against one verifier plane, with one device on an
// unpublished firmware build and a failure budget of 2. The faulty
// device must be quarantined mid-run — it burns its budget and then has
// later rounds refused at the hello — while every healthy device
// attests every round. The cell adopts the fleet's combined event
// stream, so the SLO judges the whole fleet, not a single platform.
func scenarioFleetSweep(e *ScenarioEnv) error {
	cfg := fleet.Config{
		Devices: 12, Rounds: 4, Seed: e.Seed,
		Variants: 2, Faulty: 1, MaxFailures: 2,
		CollectEvents: true,
	}
	res, err := fleet.Run(cfg)
	if err != nil {
		return err
	}
	rep := res.Report

	if rep.Quarantined != 1 || len(rep.QuarantinedNames) != 1 {
		return fmt.Errorf("quarantined = %d (%v), want exactly the faulty device",
			rep.Quarantined, rep.QuarantinedNames)
	}
	bad, ok := res.Plane.Registry().Lookup(rep.QuarantinedNames[0])
	if !ok {
		return fmt.Errorf("quarantined device %s missing from registry", rep.QuarantinedNames[0])
	}
	// Mid-run means rounds remained after quarantine: the device must
	// have been refused at least once after its budget ran out.
	if bad.Failures != cfg.MaxFailures || bad.Refusals == 0 {
		return fmt.Errorf("quarantine not mid-run: %d failures, %d refusals", bad.Failures, bad.Refusals)
	}
	healthyRounds := uint64((cfg.Devices - 1) * cfg.Rounds)
	if rep.Attested != healthyRounds {
		return fmt.Errorf("attested = %d, want %d (every healthy device, every round)",
			rep.Attested, healthyRounds)
	}
	if rep.Errored != 0 {
		return fmt.Errorf("errored sessions = %d, want 0", rep.Errored)
	}
	// The appraisal cache collapses the fleet to one miss per distinct
	// measurement.
	if rep.CacheMisses > uint64(cfg.Variants+1) {
		return fmt.Errorf("cache misses = %d, want <= %d distinct builds",
			rep.CacheMisses, cfg.Variants+1)
	}
	e.AdoptEvents(res.Events)
	e.Notef("%s quarantined after %d failed appraisals, %d later hellos refused at the door",
		bad.Name, bad.Failures, bad.Refusals)
	e.Notef("%d sessions: %d attested, %d rejected, %d refused; cache %d hits / %d misses",
		rep.Sessions, rep.Attested, rep.Rejected, rep.Refused, rep.CacheHits, rep.CacheMisses)
	return nil
}

// scenarioUpdateUnderLoad: the app runs under a registered periodic
// deadline with a busy background task; a signed v2 lands mid-run. The
// deadline is re-registered on the new incarnation, and the SLO demands
// zero misses across the whole cell — downtime included.
func scenarioUpdateUnderLoad(e *ScenarioEnv) error {
	if err := e.boot(core.Options{}); err != nil {
		return err
	}
	app, _, err := e.load(appV1Src, 3)
	if err != nil {
		return err
	}
	if _, _, err := e.load(bgSrc, 2); err != nil {
		return err
	}
	const window = 8 * core.DefaultTickPeriod
	if err := e.P.RegisterDeadline(app.ID, window); err != nil {
		return err
	}
	// Seed-dependent phase: the update lands at a different point in
	// the schedule each seed.
	pre := 10 + e.Seed%7
	for i := uint64(0); i < pre; i++ {
		if err := e.P.Run(chaosSlice); err != nil {
			return err
		}
	}
	pkg, err := e.signed(appV2Src, 2)
	if err != nil {
		return err
	}
	rep, err := e.P.ApplyUpdate(app.ID, pkg, e.Seed)
	if err != nil {
		return err
	}
	if err := e.P.Provider("oem").Verifier().Verify(rep.Quote, rep.NewIdentity, e.Seed); err != nil {
		return fmt.Errorf("post-update quote: %w", err)
	}
	if err := e.P.RegisterDeadline(rep.New, window); err != nil {
		return err
	}
	for i := 0; i < 20; i++ {
		if err := e.P.Run(chaosSlice); err != nil {
			return err
		}
	}
	e.Notef("swap downtime %d cycles against a %d-cycle deadline window", rep.DowntimeCycles, window)
	return nil
}

// scenarioUpdateWithFaults: a seeded injector flips bits in a patsy
// task and storms the kernel with spurious IRQs while the app updates.
// The update must be accepted, the trusted regions must stay
// bit-identical, and the app stays on deadline throughout. The fault
// load is declared as a textual spec — the same format tytan-sim's
// -faults flag takes.
func scenarioUpdateWithFaults(e *ScenarioEnv) error {
	f, err := e.bootFaultLoad(appV1Src)
	if err != nil {
		return err
	}
	spec := fmt.Sprintf("seed=%#x,classes=bitflips+irqstorms,period=90000", e.Seed)
	fcfg, err := faultinject.ParseSpec(spec)
	if err != nil {
		return err
	}
	if err := f.arm(fcfg); err != nil {
		return err
	}
	const window = 16 * core.DefaultTickPeriod
	if err := e.P.RegisterDeadline(f.task.ID, window); err != nil {
		return err
	}
	if err := f.run(25); err != nil {
		return err
	}
	pkg, err := e.signed(appV2Src, 2)
	if err != nil {
		return err
	}
	rep, err := e.P.ApplyUpdate(f.task.ID, pkg, e.Seed)
	if err != nil {
		return fmt.Errorf("update under faults: %w", err)
	}
	if err := e.P.RegisterDeadline(rep.New, window); err != nil {
		return err
	}
	if err := f.run(25); err != nil {
		return err
	}
	if err := f.check(); err != nil {
		return err
	}
	if err := e.attest(rep.New, rep.NewIdentity, e.Seed^0xA77E57); err != nil {
		return err
	}
	e.Notef("fault spec %q delivered %d injections around the swap", spec, len(f.inj.Events()))
	return nil
}

// scenarioDowngradeRefused: after accepting a genuine update, a
// correctly signed OLDER package and an EQUAL-version package are both
// refused by the sealed counter, and the running task is untouched —
// still alive, still attesting as the accepted version.
func scenarioDowngradeRefused(e *ScenarioEnv) error {
	if err := e.boot(core.Options{}); err != nil {
		return err
	}
	app, _, err := e.load(appV1Src, 3)
	if err != nil {
		return err
	}
	ver := 3 + e.Seed%5
	pkg, err := e.signed(appV2Src, ver)
	if err != nil {
		return err
	}
	rep, err := e.P.ApplyUpdate(app.ID, pkg, e.Seed)
	if err != nil {
		return err
	}
	older, err := e.signed(appV1Src, ver-1)
	if err != nil {
		return err
	}
	if _, err := e.P.ApplyUpdate(rep.New, older, 0); !errors.Is(err, trusted.ErrUpdateDowngrade) {
		//tytan:allow errwrap — the error value is the reported datum, may be nil
		return fmt.Errorf("older version = %v, want ErrUpdateDowngrade", err)
	}
	equal, err := e.signed(appV1Src, ver)
	if err != nil {
		return err
	}
	if _, err := e.P.ApplyUpdate(rep.New, equal, 0); !errors.Is(err, trusted.ErrUpdateDowngrade) {
		//tytan:allow errwrap — the error value is the reported datum, may be nil
		return fmt.Errorf("equal version = %v, want ErrUpdateDowngrade", err)
	}
	if !e.alive(rep.New) {
		return errors.New("denied downgrade disturbed the running task")
	}
	if err := e.P.Run(chaosSlice); err != nil {
		return err
	}
	if err := e.attest(rep.New, rep.NewIdentity, e.Seed^0xD06); err != nil {
		return fmt.Errorf("task no longer attests after refused downgrades: %w", err)
	}
	e.Notef("sealed counter at version %d refused versions %d and %d", ver, ver-1, ver)
	return nil
}

// scenarioCorruptRefused: four corruptions of one signed package —
// payload flip, digest flip, MAC flip, truncation — are each refused
// with the right typed reason, after which the PRISTINE package still
// applies: the denials burned neither the counter nor the task.
func scenarioCorruptRefused(e *ScenarioEnv) error {
	if err := e.boot(core.Options{}); err != nil {
		return err
	}
	app, _, err := e.load(appV1Src, 3)
	if err != nil {
		return err
	}
	pkg, err := e.signed(appV2Src, 2)
	if err != nil {
		return err
	}
	// Manifest layout: [0:20) header+version, [20:40) payload digest,
	// [40:60) MAC, [60:) payload.
	flip := func(idx int) []byte {
		c := append([]byte(nil), pkg...)
		c[idx] ^= 0x40
		return c
	}
	cases := []struct {
		name string
		pkg  []byte
		want error
	}{
		{"payload flip", flip(60 + int(e.Seed)%(len(pkg)-60)), trusted.ErrUpdateCorrupt},
		{"digest flip", flip(20 + int(e.Seed)%20), trusted.ErrUpdateCorrupt},
		{"mac flip", flip(40 + int(e.Seed)%20), trusted.ErrUpdateBadSignature},
		{"truncation", pkg[:len(pkg)-1-int(e.Seed)%16], trusted.ErrUpdateCorrupt},
	}
	for _, c := range cases {
		if _, err := e.P.ApplyUpdate(app.ID, c.pkg, 0); !errors.Is(err, c.want) {
			//tytan:allow errwrap — the error value is the reported datum, may be nil
			return fmt.Errorf("%s = %v, want %v", c.name, err, c.want)
		}
		if !e.alive(app.ID) {
			return fmt.Errorf("%s disturbed the running task", c.name)
		}
	}
	rep, err := e.P.ApplyUpdate(app.ID, pkg, e.Seed)
	if err != nil {
		return fmt.Errorf("pristine package after refused corruptions: %w", err)
	}
	e.Notef("four corruptions refused; pristine package then applied %d→%d",
		rep.FromVersion, rep.ToVersion)
	return nil
}

// scenarioPowerFailMidSwap: a fault hook simulates power failure at
// EVERY update phase in turn, on one platform. Each abort must leave
// the old version running, attestable and the trusted regions intact —
// and because the counter only commits in the final phase, the clean
// retry afterwards still applies the SAME version number.
func scenarioPowerFailMidSwap(e *ScenarioEnv) error {
	if err := e.boot(core.Options{}); err != nil {
		return err
	}
	app, oldID, err := e.load(appV1Src, 3)
	if err != nil {
		return err
	}
	u, err := e.P.EnableSecureUpdate()
	if err != nil {
		return err
	}
	baseline, err := snapshotTrusted(e.P.M)
	if err != nil {
		return err
	}
	errPowerFail := errors.New("simulated power failure")
	for _, phase := range trusted.UpdatePhases() {
		ph := phase
		u.FaultHook = func(at trusted.UpdatePhase) error {
			if at == ph {
				return errPowerFail
			}
			return nil
		}
		pkg, err := e.signed(appV2Src, 2)
		if err != nil {
			return err
		}
		if _, err := e.P.ApplyUpdate(app.ID, pkg, 0); !errors.Is(err, trusted.ErrUpdateAborted) {
			//tytan:allow errwrap — the error value is the reported datum, may be nil
			return fmt.Errorf("power fail at %s = %v, want ErrUpdateAborted", ph, err)
		}
		if !e.alive(app.ID) {
			return fmt.Errorf("old version dead after abort at %s", ph)
		}
		if err := baseline.check(e.P.M); err != nil {
			return fmt.Errorf("after abort at %s: %w", ph, err)
		}
		if err := e.P.Run(chaosSlice); err != nil {
			return err
		}
		if err := e.attest(app.ID, oldID, e.Seed^uint64(ph)); err != nil {
			return fmt.Errorf("old version no longer attests after abort at %s: %w", ph, err)
		}
	}
	u.FaultHook = nil
	pkg, err := e.signed(appV2Src, 2)
	if err != nil {
		return err
	}
	rep, err := e.P.ApplyUpdate(app.ID, pkg, e.Seed)
	if err != nil {
		return fmt.Errorf("clean retry after %d aborts: %w", len(trusted.UpdatePhases()), err)
	}
	if rep.FromVersion != 0 || rep.ToVersion != 2 {
		return fmt.Errorf("retry versions %d→%d, want 0→2: an abort burned the counter",
			rep.FromVersion, rep.ToVersion)
	}
	e.Notef("aborted at all %d phases, old version survived each; clean retry applied 0→2",
		len(trusted.UpdatePhases()))
	return nil
}

// scenarioQuarantinedRefused: the supervisor quarantines the v2
// identity after repeated faults; a signed update to exactly that
// identity is then refused even though its signature and version are
// impeccable.
func scenarioQuarantinedRefused(e *ScenarioEnv) error {
	if err := e.boot(core.Options{}); err != nil {
		return err
	}
	if _, err := e.P.EnableSupervision(trusted.SupervisorPolicy{
		MaxRestarts:  1,
		RestartDelay: 10_000,
	}); err != nil {
		return err
	}
	// Run the v2 binary under supervision and fault it past its restart
	// budget — its measured identity lands on the quarantine list the
	// same way a genuinely misbehaving release would.
	doomed, _, err := e.load(appV2Src, 3)
	if err != nil {
		return err
	}
	if err := e.P.Watch(doomed.ID); err != nil {
		return err
	}
	if err := e.P.K.Kill(doomed.ID, rtos.ExitFault, "scenario: injected fault"); err != nil {
		return err
	}
	restarted := func() bool {
		st, ok := e.P.Sup.Status("app")
		return ok && st.State == trusted.WatchHealthy && st.Restarts >= 1
	}
	if err := e.until(3_000_000, restarted); err != nil {
		return fmt.Errorf("awaiting restart: %w", err)
	}
	st, _ := e.P.Sup.Status("app")
	if err := e.P.K.Kill(st.TaskID, rtos.ExitFault, "scenario: injected fault"); err != nil {
		return err
	}
	quarantined := func() bool {
		st, ok := e.P.Sup.Status("app")
		return ok && st.State == trusted.WatchQuarantined
	}
	if err := e.until(3_000_000, quarantined); err != nil {
		return fmt.Errorf("awaiting quarantine: %w", err)
	}
	// The fleet rolls back to v1; an update to the quarantined v2 must
	// be refused despite a perfect signature and a fresher version.
	app, _, err := e.load(appV1Src, 3)
	if err != nil {
		return err
	}
	pkg, err := e.signed(appV2Src, 2+e.Seed)
	if err != nil {
		return err
	}
	if _, err := e.P.ApplyUpdate(app.ID, pkg, 0); !errors.Is(err, trusted.ErrUpdateQuarantined) {
		//tytan:allow errwrap — the error value is the reported datum, may be nil
		return fmt.Errorf("update to quarantined identity = %v, want ErrUpdateQuarantined", err)
	}
	if !e.alive(app.ID) {
		return errors.New("refused update disturbed the v1 task")
	}
	e.Notef("v2 quarantined after %d restarts; signed v%d update to it refused",
		st.Restarts, 2+e.Seed)
	return nil
}

// Admission probes for the bounded-task-admission scenario: a
// never-trapping spin (no certifiable cycle bound) and a task whose
// two-word frame cannot fit a 40-byte stack reservation once the
// pre-emption context frame is added.
const admitSpinSrc = `
.task "admit-spin"
.stack 64
.text
loop:
	jmp loop
`

const admitDeepSrc = `
.task "admit-deep"
.stack 40
.text
	push r1
	pop r1
	hlt
`

// scenarioBoundedTaskAdmission arms the resource-bound admission gate
// and walks it through its refusal taxonomy: a spin task with a
// declared budget but no certifiable cycle bound, the worker resubmitted
// under an impossible 1-cycle budget, and a stack that provably cannot
// hold the pre-emption context frame. Each refusal must be typed
// (ErrBoundsRejected) and traced as verify-denied with the matching
// reason; the certified worker must then load under a budget equal to
// its own certificate and run cleanly.
func scenarioBoundedTaskAdmission(e *ScenarioEnv) error {
	worker, err := asm.Assemble(bgSrc)
	if err != nil {
		return err
	}
	cert := sverify.Verify(worker, sverify.Config{}).Bounds
	if cert == nil || !cert.CyclesBounded || !cert.StackBounded {
		return fmt.Errorf("worker certificate missing: %+v", cert)
	}

	tight, err := asm.Assemble(strings.Replace(bgSrc, `"bg"`, `"admit-tight"`, 1))
	if err != nil {
		return err
	}
	if err := e.boot(core.Options{
		BoundsAdmission: true,
		CycleBudgets: map[string]uint64{
			worker.Name:  cert.Cycles, // exactly the certificate: admitted
			"admit-spin": 100_000,
			tight.Name:   1, // certified but over budget: refused
		},
	}); err != nil {
		return err
	}

	refusals := []struct {
		src    string
		im     *telf.Image
		reason string
	}{
		{src: admitSpinSrc, reason: "cycles-unbounded"},
		{im: tight, reason: "cycle-over-budget"},
		{src: admitDeepSrc, reason: "stack-over-reservation"},
	}
	for _, rc := range refusals {
		im := rc.im
		if im == nil {
			if im, err = asm.Assemble(rc.src); err != nil {
				return err
			}
		}
		_, _, lerr := e.P.LoadTaskSync(im, core.Secure, 3)
		if !errors.Is(lerr, loader.ErrBoundsRejected) {
			//tytan:allow errwrap — the error value is the reported datum, may be nil
			return fmt.Errorf("%s: err = %v, want ErrBoundsRejected", im.Name, lerr)
		}
		var be *loader.BoundsError
		if !errors.As(lerr, &be) || be.Reason != rc.reason {
			return fmt.Errorf("%s: refusal = %w, want reason %q", im.Name, lerr, rc.reason)
		}
		denied := 0
		for _, ev := range e.Obs.Buf.Events() {
			if ev.Kind == trace.KindVerifyDenied && ev.Subject == im.Name {
				denied++
				if a, ok := ev.Attr("reason"); !ok || a.Str != rc.reason {
					return fmt.Errorf("%s: traced reason = %q, want %q", im.Name, a.Str, rc.reason)
				}
			}
		}
		if denied != 1 {
			return fmt.Errorf("%s: %d verify-denied events, want 1", im.Name, denied)
		}
	}

	tcb, _, err := e.P.LoadTaskSync(worker, core.Secure, 3)
	if err != nil {
		return fmt.Errorf("certified worker refused: %w", err)
	}
	for i := 0; i < 12; i++ {
		if err := e.P.Run(chaosSlice); err != nil {
			return err
		}
	}
	if !e.alive(tcb.ID) {
		return errors.New("admitted worker died")
	}
	// The burst telemetry must agree with the certificate it was
	// admitted under.
	a := analyze.Analyze(e.Obs.Buf.Events())
	st, ok := a.Bursts[worker.Name]
	if !ok || st.Count == 0 {
		return errors.New("no measured bursts for the admitted worker")
	}
	if viol := a.CrossCheckBounds(map[string]uint64{worker.Name: cert.Cycles}); len(viol) != 0 {
		return fmt.Errorf("measured burst exceeds the admission certificate: %+v", viol)
	}
	e.Notef("3 refusals typed and traced; worker admitted at %d-cycle budget, worst measured burst %d over %d bursts",
		cert.Cycles, st.Max, st.Count)
	return nil
}

// ScenarioCell is one (scenario, seed) outcome.
type ScenarioCell struct {
	Scenario string
	Seed     uint64
	// Err is the scenario failure, empty on success.
	Err string
	// Cycles is the cell's final simulated cycle count.
	Cycles uint64
	// Counts are the update service's decision counters.
	Counts trusted.UpdateCounts
	// SLO holds the per-rule verdicts; SLOPass is their conjunction.
	SLO     []analyze.RuleResult
	SLOPass bool
	// Notes are the scenario's deterministic report lines.
	Notes []string
	// Pass is Err == "" && SLOPass.
	Pass bool
}

// MatrixReport is the deterministic outcome of a full matrix run.
type MatrixReport struct {
	Seeds []uint64
	Cells []ScenarioCell
}

// Pass reports whether every cell passed.
func (r *MatrixReport) Pass() bool {
	for _, c := range r.Cells {
		if !c.Pass {
			return false
		}
	}
	return true
}

// RunScenarioMatrix runs every scenario across the seed matrix, cells
// in parallel, and returns the report with cells in declaration order.
func RunScenarioMatrix(short bool) *MatrixReport {
	seeds := ScenarioSeeds(short)
	scens := UpdateScenarios()
	cells := make([]ScenarioCell, len(scens)*len(seeds))
	var wg sync.WaitGroup
	for si, s := range scens {
		for ki, seed := range seeds {
			wg.Add(1)
			go func(s Scenario, seed uint64, idx int) {
				defer wg.Done()
				cells[idx] = runScenarioCell(s, seed)
			}(s, seed, si*len(seeds)+ki)
		}
	}
	wg.Wait()
	return &MatrixReport{Seeds: seeds, Cells: cells}
}

// runScenarioCell executes one cell and evaluates its SLO.
func runScenarioCell(s Scenario, seed uint64) ScenarioCell {
	cell := ScenarioCell{Scenario: s.Name, Seed: seed}
	env := &ScenarioEnv{Seed: seed}
	err := s.Run(env)
	if err != nil {
		cell.Err = err.Error()
	}
	if env.P != nil {
		cell.Cycles = env.P.Cycles()
		if u := env.P.SecureUpdate(); u != nil {
			cell.Counts = u.Counts()
		}
	}
	// The SLO stream: the cell platform's events, plus any stream the
	// scenario adopted from its own harness (the fleet sweep).
	var evs []trace.Event
	if env.Obs != nil {
		evs = env.Obs.Events()
	}
	evs = append(evs, env.adopted...)
	if len(evs) > 0 {
		if spec, perr := analyze.ParseSpecString(s.SLO); perr != nil {
			cell.Err = strings.TrimSpace(cell.Err + "; bad SLO spec: " + perr.Error())
		} else {
			v := spec.Evaluate(analyze.Analyze(evs))
			cell.SLO = v.Results
			cell.SLOPass = v.Pass
		}
	}
	cell.Notes = env.notes
	cell.Pass = cell.Err == "" && cell.SLOPass
	if env.P != nil {
		env.P.Close()
	}
	return cell
}

// WriteText renders the report. Byte-identical across runs of the same
// matrix — the determinism contract TestScenarioCheck enforces.
func (r *MatrixReport) WriteText(w io.Writer) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	scens := UpdateScenarios()
	pf("update scenario matrix: %d scenarios × %d seeds = %d cells\n",
		len(scens), len(r.Seeds), len(r.Cells))
	gloss := make(map[string]string, len(scens))
	for _, s := range scens {
		gloss[s.Name] = s.Gloss
	}
	last := ""
	passed := 0
	for _, c := range r.Cells {
		if c.Scenario != last {
			pf("\n%s — %s\n", c.Scenario, gloss[c.Scenario])
			last = c.Scenario
		}
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
		} else {
			passed++
		}
		pf("  seed %#-6x %s  cycles=%d updates acc/den/rb=%d/%d/%d\n",
			c.Seed, verdict, c.Cycles, c.Counts.Accepted, c.Counts.Denied, c.Counts.RolledBack)
		for _, rr := range c.SLO {
			st := "pass"
			if !rr.Pass {
				st = "FAIL"
			}
			pf("    slo  %s -> measured %d over %d samples (%s)\n",
				rr.Text, rr.Measured, rr.Samples, st)
		}
		for _, n := range c.Notes {
			pf("    note %s\n", n)
		}
		if c.Err != "" {
			pf("    error %s\n", c.Err)
		}
	}
	overall := "PASS"
	if !r.Pass() {
		overall = "FAIL"
	}
	pf("\nresult: %s (%d/%d cells passed)\n", overall, passed, len(r.Cells))
	return err
}
