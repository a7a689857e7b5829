// Package fleet is the fleet-scale attestation service: N deterministic
// simulated TyTAN platforms (the device farm) attest against one
// concurrent verifier plane, over an in-memory network whose conns
// behave like loopback sockets: writes are buffered (up to 64 KiB
// unread) and never wait for the reader, and a closed peer's last
// bytes still arrive (memnet.go).
//
// The farm spins devices up in a sharded worker pool — each simulation
// is wall-clock-free, so instances parallelize trivially and the shard
// count changes only how fast the run finishes, never its outcome. The
// plane (plane.go) serves sessions with an acceptor pool, per-session
// deadlines, a verifier-side appraisal cache keyed by measurement
// digest (cache.go) and a fleet registry with supervisor-style
// quarantine (registry.go). Every number in the text report is a pure
// function of the Config, so two runs of the same seed render
// byte-identical reports even under full concurrency — the
// TestFleetCheck contract.
package fleet

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/remote"
	"repro/internal/trace"
	"repro/internal/trusted"
)

// Config parameterizes a fleet run.
type Config struct {
	// Devices is the fleet size. Required.
	Devices int
	// Rounds is how many attestation rounds each device runs (0 = 1).
	Rounds int
	// Shards is the device worker-pool size (0 = 8). Changes wall-clock
	// speed and peak memory only — never the report.
	Shards int
	// Seed drives variant assignment and faulty-device selection.
	Seed uint64
	// Variants is how many published firmware builds the fleet runs
	// (0 = 3). The published builds form the plane's known-good set.
	Variants int
	// Faulty is how many devices run an unpublished build (0 = none).
	// They attest fine at the wire level; the plane's appraisal fails
	// them and eventually quarantines them.
	Faulty int
	// MaxFailures is the appraisal-failure budget before quarantine
	// (0 = 3).
	MaxFailures int
	// Listeners is the plane's acceptor-pool size (0 = 4).
	Listeners int
	// Provider is the attestation-key context (empty = "oem").
	Provider string
	// RAMSize is each device's RAM in bytes (0 = 2 MiB, the smallest
	// layout that fits the task pool — fleet devices are tiny, and the
	// platform pool keeps peak memory O(Shards)).
	RAMSize uint32
	// Observe attaches per-device observability so attestation
	// round-trip spans (in simulated cycles) are measured.
	Observe bool
	// CollectEvents additionally returns the deterministic event stream
	// (device events in device order, then plane events) in the Result.
	// Implies Observe.
	CollectEvents bool
	// Clock, when non-nil, is a host-ns clock the plane uses to time
	// its verification path for throughput benchmarks. Host timings
	// never enter the text report; keep nil for deterministic-output
	// runs.
	Clock func() int64
	// Telemetry selects the fleet-wide telemetry products assembled
	// after the run (implies CollectEvents). Telemetry is purely
	// observational: the report and the event stream are byte-identical
	// whether it is on or off — the TestFleetTraceCheck contract.
	Telemetry TelemetryConfig
}

// TelemetryConfig selects fleet telemetry products.
type TelemetryConfig struct {
	// Timeline builds the merged multi-lane Chrome timeline correlating
	// device-side session brackets with plane-side verdicts.
	Timeline bool
	// Metrics builds the plane's Prometheus registry and feeds its
	// session-duration histogram from the device-side telemetry.
	Metrics bool
	// FlightSize, when positive, attaches a bounded flight recorder of
	// this capacity to every device; recorders that trip yield
	// correlated incident reports.
	FlightSize int
}

func (t TelemetryConfig) enabled() bool {
	return t.Timeline || t.Metrics || t.FlightSize > 0
}

func (c Config) withDefaults() (Config, error) {
	if c.Devices <= 0 {
		return c, errors.New("fleet: Config.Devices must be positive")
	}
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Variants <= 0 {
		c.Variants = 3
	}
	if c.Faulty < 0 {
		c.Faulty = 0
	}
	if c.Faulty > c.Devices {
		c.Faulty = c.Devices
	}
	if c.Listeners <= 0 {
		c.Listeners = 4
	}
	if c.Provider == "" {
		c.Provider = "oem"
	}
	if c.RAMSize == 0 {
		c.RAMSize = 2 << 20
	}
	if c.Telemetry.enabled() {
		c.CollectEvents = true
	}
	if c.CollectEvents {
		c.Observe = true
	}
	return c, nil
}

// DeviceName names device idx ("dev-0042"): zero-padded so sorted
// names follow device order.
func DeviceName(idx int) string { return fmt.Sprintf("dev-%04d", idx) }

// deviceResult is one device's view of its rounds.
type deviceResult struct {
	name      string
	variant   int
	faulty    bool
	ok        int           // sessions whose verdict came back pass
	denied    int           // sessions whose verdict came back fail
	refused   int           // hellos refused at the door
	errored   int           // transport/protocol failures
	durations []uint64      // attest round-trip spans, device cycles
	e2e       []uint64      // session end-to-end spans (hello→verdict), device cycles
	buf       *trace.Buffer // the device's event buffer (Observe only), until collected
	events    []trace.Event // the device's stream, a sub-slice of the collected one
	brackets  []bracket     // the stream's session brackets (timeline or metrics only)
	recorder  *Recorder     // flight recorder (Telemetry.FlightSize only)
	err       error         // fatal setup failure
}

// Result is a completed fleet run.
type Result struct {
	// Report is the deterministic summary.
	Report Report
	// Events is the deterministic combined event stream (CollectEvents
	// only): each device's stream in device order, then the plane's
	// events sorted by device and session ordinal.
	Events []trace.Event
	// Plane exposes the registry, cache and counters for inspection.
	Plane *Plane
	// Telemetry carries the assembled fleet telemetry products (nil
	// unless Config.Telemetry requested any).
	Telemetry *Telemetry
}

// Telemetry is the assembled fleet telemetry: the correlated timeline,
// the plane's Prometheus registry, and any flight-recorder incidents.
type Telemetry struct {
	// Timeline is the merged, correlated fleet timeline (Telemetry.Timeline).
	Timeline *Timeline
	// Metrics is the plane's Prometheus registry with the deterministic
	// session-duration histogram fed (Telemetry.Metrics).
	Metrics *trace.Registry
	// Incidents are the tripped flight recorders' frozen windows with
	// correlated plane decisions, in device order (Telemetry.FlightSize).
	Incidents []Incident
}

// Run executes a fleet run: boot Devices platforms in Shards workers,
// each attesting Rounds times against one concurrent verifier plane.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	// Seeded assignment: which published build each device runs, and
	// which devices run the unpublished (faulty) build instead.
	rng := faultinject.NewRNG(cfg.Seed ^ 0xF1EE7F1EE7)
	variant := make([]int, cfg.Devices)
	for i := range variant {
		variant[i] = rng.Intn(cfg.Variants)
	}
	faulty := make([]bool, cfg.Devices)
	for picked := 0; picked < cfg.Faulty; {
		i := rng.Intn(cfg.Devices)
		if !faulty[i] {
			faulty[i] = true
			// The unpublished build: one past the published set.
			variant[i] = cfg.Variants
			picked++
		}
	}

	known, err := PublishedSet(cfg.Variants)
	if err != nil {
		return nil, err
	}

	// The verifier plane. All simulated devices boot from the same
	// development platform key, so one provider verifier covers the
	// whole fleet (per-device endorsement keys are the carried-over
	// attestation-PKI item in ROADMAP.md).
	client := remote.NewClient(trusted.NewVerifier(core.DevKey, cfg.Provider), cfg.Provider, remote.ClientOptions{})
	reg := NewRegistry(cfg.MaxFailures)
	for i := 0; i < cfg.Devices; i++ {
		reg.Register(DeviceName(i))
	}
	var planeBuf *trace.Buffer
	var planeSink trace.Sink
	if cfg.Observe {
		planeBuf = new(trace.Buffer)
		planeSink = planeBuf
	}
	plane := NewPlane(PlaneConfig{
		Client:    client,
		Listeners: cfg.Listeners,
		Registry:  reg,
		KnownGood: known,
		Obs:       planeSink,
		NonceBase: cfg.Seed << 20,
		Clock:     cfg.Clock,
	})
	ln := newMemListener()
	planeDone := make(chan struct{})
	go func() {
		plane.Serve(ln)
		close(planeDone)
	}()

	// The device farm: a sharded worker pool over the device indices.
	results := make([]deviceResult, cfg.Devices)
	parallel(cfg.Shards, cfg.Devices, func(i int) {
		results[i] = runDevice(cfg, i, variant[i], faulty[i], ln)
	})
	ln.Close()
	<-planeDone

	for i := range results {
		if results[i].err != nil {
			return nil, fmt.Errorf("fleet: device %s: %w", results[i].name, results[i].err)
		}
	}

	res := &Result{Plane: plane}
	sessions := cfg.Telemetry.Timeline || cfg.Telemetry.Metrics
	var planeEvents []trace.Event
	if planeBuf != nil {
		var all []trace.Event
		all, planeEvents = collect(cfg.Shards, results, planeBuf, sessions)
		if cfg.CollectEvents {
			res.Events = all
		}
	}
	res.Report = buildReport(cfg, plane, results)
	if cfg.Telemetry.enabled() {
		tel := &Telemetry{}
		if sessions {
			streams := make([]NamedEvents, len(results))
			brackets := make([][]bracket, len(results))
			for i := range results {
				streams[i] = NamedEvents{Name: results[i].name, Events: results[i].events}
				brackets[i] = results[i].brackets
			}
			tl := assemble(streams, brackets, planeEvents)
			if cfg.Telemetry.Timeline {
				tel.Timeline = tl
			}
			if cfg.Telemetry.Metrics {
				// Feed the deterministic session-duration histogram from
				// the device-side telemetry; histograms never feed back
				// into the report or the event stream.
				plane.ObserveSessionCycles(tl.E2E())
				tel.Metrics = plane.Metrics()
			}
		}
		for i := range results {
			if results[i].recorder == nil {
				continue
			}
			if inc, ok := results[i].recorder.Incident(planeEvents); ok {
				tel.Incidents = append(tel.Incidents, inc)
			}
		}
		res.Telemetry = tel
	}
	return res, nil
}

// runDevice boots one simulated device, loads its firmware build, and
// runs its attestation rounds against the plane.
func runDevice(cfg Config, idx, variant int, faulty bool, ln *memListener) deviceResult {
	res := deviceResult{name: DeviceName(idx), variant: variant, faulty: faulty}

	p, err := core.NewPlatform(core.Options{Provider: cfg.Provider, RAMSize: cfg.RAMSize})
	if err != nil {
		res.err = err
		return res
	}
	defer p.Close()

	var obs *core.Obs
	var srvOpts remote.ServerOptions
	if cfg.Observe {
		var extra []trace.Sink
		if cfg.Telemetry.FlightSize > 0 {
			res.recorder = NewRecorder(res.name, cfg.Telemetry.FlightSize)
			extra = append(extra, res.recorder)
		}
		obs = p.EnableObservability(extra...)
		// The server emits through the platform's fan-out sink, so its
		// KindAttest and KindSession events land in the buffer and the
		// flight recorder alike.
		srvOpts = remote.ServerOptions{Obs: obs.Sink(), Cycles: p.M.Cycles}
	}

	im, err := VariantImage(variant)
	if err != nil {
		res.err = err
		return res
	}
	tcb, _, err := p.LoadTaskSync(im, core.Secure, 3)
	if err != nil {
		res.err = err
		return res
	}
	e, ok := p.C.RTM.LookupByTask(tcb.ID)
	if !ok {
		res.err = errors.New("task unregistered after load")
		return res
	}

	srv := remote.NewServer(remote.ComponentsAttestor{C: p.C}, srvOpts)
	hello := remote.Hello{Device: res.name, Provider: cfg.Provider, TruncID: e.TruncID}
	for r := 0; r < cfg.Rounds; r++ {
		if r > 0 {
			if err := p.Run(core.DefaultTickPeriod); err != nil {
				res.err = err
				return res
			}
		}
		// The round index is the session ordinal: the correlation key
		// both the device-side KindSession bracket and the plane-side
		// KindFleet decision are stamped with.
		hello.Session = uint64(r)
		conn, err := ln.Dial()
		if err != nil {
			res.errored++
			continue
		}
		err = srv.AttestTo(conn, hello)
		conn.Close()
		switch {
		case err == nil:
			res.ok++
		case errors.Is(err, remote.ErrDenied):
			res.denied++
		case errors.Is(err, remote.ErrRefused):
			res.refused++
		default:
			res.errored++
		}
	}

	if obs != nil {
		res.buf = obs.Buf
	}
	return res
}

// collect copies every device's stream, then the plane's, into one
// slice: the only copy each stream gets. The shard workers scan each
// device's sub-slice once, for its samples and, when brackets is set,
// its session brackets; one of them sorts the plane's tail by device
// and session ordinal meanwhile. It returns the whole stream and the
// plane's tail.
func collect(shards int, results []deviceResult, planeBuf *trace.Buffer, brackets bool) (all, plane []trace.Event) {
	offs := make([]int, len(results)+1)
	for i := range results {
		offs[i+1] = offs[i] + results[i].buf.Len()
	}
	n := offs[len(results)]
	all = make([]trace.Event, n+planeBuf.Len())
	// Job 0 is the plane's tail, handed out first so its sort overlaps
	// the device scans.
	parallel(shards, len(results)+1, func(job int) {
		if job == 0 {
			plane = planeBuf.AppendEvents(all[n:n])
			slices.SortStableFunc(plane, func(a, b trace.Event) int {
				return cmp.Or(strings.Compare(a.Subject, b.Subject), cmp.Compare(a.Cycle, b.Cycle))
			})
			return
		}
		i := job - 1
		r := &results[i]
		r.events = r.buf.AppendEvents(all[offs[i]:offs[i]:offs[i+1]])
		r.buf = nil
		r.scan(brackets)
	})
	return all, plane
}

// scan reads the device's stream once: every attest round-trip and
// session end-to-end sample, each off its closing event through
// analyze.Sample, and, when brackets is set, the session brackets. The
// samples stay unsorted; buildReport sorts the pooled lists.
func (r *deviceResult) scan(brackets bool) {
	// Each session the device ran emits one attest reply and one
	// bracket pair at most.
	sessions := r.ok + r.denied + r.refused + r.errored
	r.durations = make([]uint64, 0, sessions)
	r.e2e = make([]uint64, 0, sessions)
	if brackets {
		r.brackets = make([]bracket, 0, 2*sessions)
	}
	for i := range r.events {
		e := &r.events[i]
		switch class, cycles, ok := analyze.Sample(*e); {
		case !ok:
		case class == analyze.ClassAttest:
			r.durations = append(r.durations, cycles)
		case class == analyze.ClassSession:
			r.e2e = append(r.e2e, cycles)
		}
		if brackets {
			if b, ok := bracketOf(e); ok {
				r.brackets = append(r.brackets, b)
			}
		}
	}
}

// parallel runs fn(i) for every i in [0, n) on a pool of shards
// workers, handing out indices in order.
func parallel(shards, n int, fn func(i int)) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
