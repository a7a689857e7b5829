package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/remote"
	"repro/internal/trace"
	"repro/internal/trusted"
)

// The fleet workloads: fleet.Run over 256 devices × 20 rounds (4 of them
// running an unpublished build, 3 published builds, 2 device shards, 2
// plane acceptors) under a host clock, repeated with seeds seed,
// seed+1, …. fleet-telemetry adds the timeline, metrics and
// flight-recorder products. The loop is closed: each device's AttestTo
// blocks on the plane's verdict before its next session.

const (
	fleetDevices   = 256
	fleetRounds    = 20
	fleetFaulty    = 4
	fleetVariants  = 3
	fleetShards    = 2
	fleetListeners = 2
	fleetProvider  = "oem" // fleet.Run's default provider
	fleetFlight    = 64
)

func fleetConfig(seed uint64, telemetry bool) fleet.Config {
	cfg := fleet.Config{
		Devices: fleetDevices, Rounds: fleetRounds, Faulty: fleetFaulty,
		Variants: fleetVariants, Shards: fleetShards, Listeners: fleetListeners,
		Seed: seed,
	}
	if telemetry {
		cfg.Telemetry = fleet.TelemetryConfig{Timeline: true, Metrics: true, FlightSize: fleetFlight}
	}
	return cfg
}

// fleetPlan is fleet.Run's seeded build assignment, replayed: which
// build each device runs, and which devices run the unpublished one.
type fleetPlan struct {
	variant []int
	faulty  []bool
}

func planFleet(cfg fleet.Config) fleetPlan {
	rng := faultinject.NewRNG(cfg.Seed ^ 0xF1EE7F1EE7)
	pl := fleetPlan{variant: make([]int, cfg.Devices), faulty: make([]bool, cfg.Devices)}
	for i := range pl.variant {
		pl.variant[i] = rng.Intn(cfg.Variants)
	}
	for picked := 0; picked < cfg.Faulty; {
		i := rng.Intn(cfg.Devices)
		if !pl.faulty[i] {
			pl.faulty[i] = true
			pl.variant[i] = cfg.Variants
			picked++
		}
	}
	return pl
}

// fleetDigest is a fleet repetition's deterministic outcome.
type fleetDigest struct {
	Attested, Rejected, Refused uint64
	CacheHits, CacheMisses      uint64
	// Device-cycle latencies, measured only with observability on.
	AttestRTTP50, AttestRTTP99   uint64
	SessionE2EP50, SessionE2EP99 uint64
}

func digestOf(rep fleet.Report) fleetDigest {
	return fleetDigest{
		Attested: rep.Attested, Rejected: rep.Rejected, Refused: rep.Refused,
		CacheHits: rep.CacheHits, CacheMisses: rep.CacheMisses,
		AttestRTTP50: rep.AttestRTT.P50, AttestRTTP99: rep.AttestRTT.P99,
		SessionE2EP50: rep.SessionE2E.P50, SessionE2EP99: rep.SessionE2E.P99,
	}
}

// checkFleet verifies one repetition: no session lost to errors, every
// session accounted for, one appraisal-cache miss per distinct build in
// use, exactly the faulty devices quarantined, and the golden digest.
func checkFleet(cfg fleet.Config, rep fleet.Report) error {
	pl := planFleet(cfg)
	if rep.Errored != 0 {
		return fmt.Errorf("seed %d: %d sessions errored", cfg.Seed, rep.Errored)
	}
	if got, want := rep.Attested+rep.Rejected+rep.Refused, uint64(cfg.Devices*cfg.Rounds); got != want {
		return fmt.Errorf("seed %d: %d sessions accounted, want %d", cfg.Seed, got, want)
	}
	builds := map[int]bool{}
	var faulty []string
	for i, v := range pl.variant {
		builds[v] = true
		if pl.faulty[i] {
			faulty = append(faulty, fleet.DeviceName(i))
		}
	}
	if rep.CacheMisses != uint64(len(builds)) {
		return fmt.Errorf("seed %d: %d cache misses, want one per build (%d)", cfg.Seed, rep.CacheMisses, len(builds))
	}
	if !slices.Equal(rep.QuarantinedNames, faulty) {
		return fmt.Errorf("seed %d: quarantined %v, want the faulty devices %v", cfg.Seed, rep.QuarantinedNames, faulty)
	}
	golden := fleetGolden
	if cfg.Telemetry != (fleet.TelemetryConfig{}) {
		golden = fleetTelemetryGolden
	}
	if d := digestOf(rep); d != golden {
		return fmt.Errorf("seed %d: digest %+v differs from golden %+v", cfg.Seed, d, golden)
	}
	return nil
}

// runFleetOnce runs one checked repetition under the host clock.
func runFleetOnce(seed uint64, telemetry bool, clock func() int64) (*fleet.Result, time.Duration, error) {
	cfg := fleetConfig(seed, telemetry)
	cfg.Clock = clock
	start := time.Now()
	res, err := fleet.Run(cfg)
	wall := time.Since(start)
	if err != nil {
		return nil, wall, err
	}
	return res, wall, checkFleet(cfg, res.Report)
}

func runFleet(r *runState, telemetry bool) error {
	base := time.Now()
	clock := func() int64 { return int64(time.Since(base)) }

	// Each set-up is one full repetition at the run's seed. All of them
	// must render the same report, and so must the first measured
	// repetition: the same-seed rerun check.
	var report string
	err := r.setup(func() error {
		res, _, err := runFleetOnce(r.cfg.seed, telemetry, clock)
		if err != nil {
			return err
		}
		if txt := res.Report.Text(); report == "" {
			report = txt
		} else if txt != report {
			return errors.New("two set-ups at the same seed rendered different reports")
		}
		return nil
	})
	if err != nil {
		return err
	}

	var sessions uint64
	seed := r.cfg.seed
	ops, _, alloc := r.loop(func(w *window) error {
		s := seed
		seed++
		res, wall, err := runFleetOnce(s, telemetry, clock)
		w.busy += wall
		if res == nil {
			return err
		}
		w.ops += float64(res.Report.Attested)
		for _, ns := range res.Plane.HostDurations() {
			w.lat = append(w.lat, float64(ns)/1e3)
		}
		sessions += res.Report.Sessions
		if s == r.cfg.seed {
			fleetGuest(r, res.Report)
			var rerun error
			if res.Report.Text() != report {
				rerun = errors.New("same-seed rerun rendered a different report")
			}
			r.check(rerun)
		}
		return err
	})
	r.summarizeWindows()
	r.info["alloc_kb_per_op"] = ratio(float64(alloc)/1024, float64(sessions))
	r.info["repetitions"] = float64(ops)
	return nil
}

// fleetGuest records a repetition's digest.
func fleetGuest(r *runState, rep fleet.Report) {
	d := digestOf(rep)
	r.guest["attested"] = float64(d.Attested)
	r.guest["rejected"] = float64(d.Rejected)
	r.guest["refused"] = float64(d.Refused)
	r.guest["cache_hits"] = float64(d.CacheHits)
	r.guest["cache_misses"] = float64(d.CacheMisses)
	if d.AttestRTTP50 > 0 {
		r.guest["attest_rtt_cycles_p50"] = float64(d.AttestRTTP50)
		r.guest["attest_rtt_cycles_p99"] = float64(d.AttestRTTP99)
		r.guest["session_e2e_cycles_p50"] = float64(d.SessionE2EP50)
		r.guest["session_e2e_cycles_p99"] = float64(d.SessionE2EP99)
	}
}

// timedConn times every blocked Read and Write on one side of a
// session as a wire span under the session's span.
type timedConn struct {
	net.Conn
	tr     *tracer
	key    string
	parent int
	waited time.Duration
}

func (c *timedConn) Read(b []byte) (int, error) {
	sp := c.tr.begin("wire.read", c.key, c.parent)
	n, err := c.Conn.Read(b)
	c.waited += c.tr.end(sp)
	return n, err
}

func (c *timedConn) Write(b []byte) (int, error) {
	sp := c.tr.begin("wire.write", c.key, c.parent)
	n, err := c.Conn.Write(b)
	c.waited += c.tr.end(sp)
	return n, err
}

// replayDevice is one device's share of a traced fleet replay.
type replayDevice struct {
	boot, load  time.Duration
	sliceUS     []float64 // each run slice between rounds
	attestUS    []float64 // device-side session (AttestTo)
	waitUS      []float64 // device-side wire wait per session
	planeUS     []float64 // plane-side session (HandleConn)
	planeSelfUS []float64 // HandleConn minus its wire wait
	switches    uint64
	ticks       uint64
	stats       machine.Stats
	err         error
}

// fleetReplay is a whole traced replay.
type fleetReplay struct {
	devices                              []replayDevice
	attested, rejected, refused, errored uint64
	hits, misses                         uint64
}

// replayFleet rebuilds fleet.Run's farm from core, remote and
// fleet.NewPlane/HandleConn: the same seeded build assignment, device
// registry, plane configuration and rounds, with each session over its
// own net.Pipe and spans around every layer call. With observe set,
// every device carries observability and a flight recorder, and the
// plane an event buffer, as in fleet-telemetry.
func replayFleet(cfg fleet.Config, tr *tracer, observe bool) (fleetReplay, error) {
	var out fleetReplay
	pl := planFleet(cfg)
	known, err := fleet.PublishedSet(cfg.Variants)
	if err != nil {
		return out, err
	}
	reg := fleet.NewRegistry(0)
	for i := 0; i < cfg.Devices; i++ {
		reg.Register(fleet.DeviceName(i))
	}
	pc := fleet.PlaneConfig{
		Client:    remote.NewClient(trusted.NewVerifier(core.DevKey, fleetProvider), fleetProvider, remote.ClientOptions{}),
		Listeners: cfg.Listeners,
		Registry:  reg,
		KnownGood: known,
		NonceBase: cfg.Seed << 20,
	}
	if observe {
		pc.Obs = new(trace.Buffer)
	}
	plane := fleet.NewPlane(pc)

	out.devices = make([]replayDevice, cfg.Devices)
	idx := make(chan int)
	var wg sync.WaitGroup
	for s := 0; s < cfg.Shards; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out.devices[i] = replayOneDevice(cfg, i, pl.variant[i], plane, tr, observe)
			}
		}()
	}
	for i := 0; i < cfg.Devices; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i := range out.devices {
		if err := out.devices[i].err; err != nil {
			return out, fmt.Errorf("device %s: %w", fleet.DeviceName(i), err)
		}
	}
	out.attested, out.rejected, out.refused, out.errored = plane.Counts()
	out.hits, out.misses = plane.Cache().Counts()
	return out, nil
}

// replayOneDevice boots one device, loads its build, and runs its
// rounds against the plane.
func replayOneDevice(cfg fleet.Config, idx, variant int, plane *fleet.Plane, tr *tracer, observe bool) replayDevice {
	var d replayDevice
	name := fleet.DeviceName(idx)
	sp := tr.begin("core.boot", name, -1)
	p, err := core.NewPlatform(core.Options{Provider: fleetProvider, RAMSize: 2 << 20})
	d.boot = tr.end(sp)
	if err != nil {
		d.err = err
		return d
	}
	defer p.Close()

	var srvOpts remote.ServerOptions
	if observe {
		obs := p.EnableObservability(fleet.NewRecorder(name, fleetFlight))
		srvOpts = remote.ServerOptions{Obs: obs.Sink(), Cycles: p.M.Cycles}
	}
	im, err := fleet.VariantImage(variant)
	if err != nil {
		d.err = err
		return d
	}
	sp = tr.begin("core.load", name, -1)
	tcb, _, err := p.LoadTaskSync(im, core.Secure, 3)
	d.load = tr.end(sp)
	if err != nil {
		d.err = err
		return d
	}
	e, ok := p.C.RTM.LookupByTask(tcb.ID)
	if !ok {
		d.err = errors.New("task unregistered after load")
		return d
	}

	srv := remote.NewServer(remote.ComponentsAttestor{C: p.C}, srvOpts)
	hello := remote.Hello{Device: name, Provider: fleetProvider, TruncID: e.TruncID}
	for round := 0; round < cfg.Rounds; round++ {
		if round > 0 {
			sp := tr.begin("rtos.run", name, -1)
			err := p.Run(core.DefaultTickPeriod)
			d.sliceUS = append(d.sliceUS, usOf(tr.end(sp)))
			if err != nil {
				d.err = err
				return d
			}
		}
		hello.Session = uint64(round)
		key := trace.SessionKey(name, hello.Session)
		devEnd, planeEnd := net.Pipe()
		dc := &timedConn{Conn: devEnd, tr: tr, key: key}
		pcn := &timedConn{Conn: planeEnd, tr: tr, key: key}
		var planeDur time.Duration
		done := make(chan struct{})
		go func() {
			defer close(done)
			pcn.parent = tr.begin("fleet.handle_conn", key, -1)
			plane.HandleConn(pcn) // outcomes land in the plane's counters
			planeDur = tr.end(pcn.parent)
		}()
		dc.parent = tr.begin("remote.attest_to", key, -1)
		err := srv.AttestTo(dc, hello)
		attest := tr.end(dc.parent)
		dc.Close()
		<-done
		if err != nil && !errors.Is(err, remote.ErrDenied) && !errors.Is(err, remote.ErrRefused) {
			d.err = err
			return d
		}
		d.attestUS = append(d.attestUS, usOf(attest))
		d.waitUS = append(d.waitUS, usOf(dc.waited))
		d.planeUS = append(d.planeUS, usOf(planeDur))
		d.planeSelfUS = append(d.planeSelfUS, usOf(planeDur-pcn.waited))
	}
	d.switches = p.K.Switches()
	d.ticks = p.K.Ticks()
	d.stats = p.M.Stats()
	return d
}

// splitStreams cuts fleet.Run's CollectEvents stream back into the
// per-device streams and the plane's stream. Device streams come first,
// in device order; nothing runs on a device after its last session
// closes, so each ends at the closing KindSession event of its final
// round. The plane's events follow.
func splitStreams(events []trace.Event, devices, rounds int) ([]fleet.NamedEvents, []trace.Event, error) {
	streams := make([]fleet.NamedEvents, 0, devices)
	start := 0
	for i, e := range events {
		if len(streams) == devices {
			break
		}
		name := fleet.DeviceName(len(streams))
		if e.Kind != trace.KindSession || e.Subject != name {
			continue
		}
		n, _ := e.NumAttr("session")
		if phase, _ := e.Attr("phase"); n == uint64(rounds-1) && phase.Str != "hello" {
			streams = append(streams, fleet.NamedEvents{Name: name, Events: events[start : i+1]})
			start = i + 1
		}
	}
	if len(streams) != devices {
		return nil, nil, fmt.Errorf("found %d of %d device streams", len(streams), devices)
	}
	for _, e := range events[start:] {
		if e.Sub != trace.SubFleet {
			return nil, nil, fmt.Errorf("non-plane event %v after the device streams", e)
		}
	}
	return streams, events[start:], nil
}

// traceFleet replays the fleet workload with spans, checks that the
// replay counts the same sessions as fleet.Run at each seed, and — for
// fleet-telemetry — times the telemetry assembly from outside on the
// reference run's collected events.
func traceFleet(r *runState, telemetry bool) error {
	tr := r.tracer
	var boot, load, slice, attest, wait, planeSelf, plane, rates, events, timeline, metricsUS []float64
	var switches, ticks, sessions, alloc uint64
	var stats machine.Stats
	var hits, lookups uint64
	var ms runtime.MemStats
	seed := r.cfg.seed
	ops, _, _ := r.loop(func(*window) error {
		defer tr.fold()
		cfg := fleetConfig(seed, telemetry)
		seed++
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		start := time.Now()
		rp, err := replayFleet(cfg, tr, telemetry)
		wall := time.Since(start)
		runtime.ReadMemStats(&ms)
		alloc += ms.TotalAlloc - alloc0
		if err != nil {
			return err
		}
		rates = append(rates, float64(rp.attested)/wall.Seconds())
		for _, d := range rp.devices {
			boot = append(boot, usOf(d.boot))
			load = append(load, usOf(d.load))
			slice = append(slice, d.sliceUS...)
			attest = append(attest, d.attestUS...)
			wait = append(wait, d.waitUS...)
			planeSelf = append(planeSelf, d.planeSelfUS...)
			plane = append(plane, d.planeUS...)
			switches += d.switches
			ticks += d.ticks
			stats = addStats(stats, d.stats)
		}
		sessions += uint64(cfg.Devices * cfg.Rounds)
		hits += rp.hits
		lookups += rp.hits + rp.misses

		// The reference run at the same seed, untimed except for the
		// telemetry assembly measured from outside.
		refCfg := cfg
		refCfg.Telemetry = fleet.TelemetryConfig{}
		refCfg.CollectEvents = telemetry
		ref, err := fleet.Run(refCfg)
		if err != nil {
			return err
		}
		if err := checkFleet(cfg, ref.Report); err != nil {
			return err
		}
		rep := ref.Report
		if rp.attested != rep.Attested || rp.rejected != rep.Rejected || rp.refused != rep.Refused || rp.errored != rep.Errored {
			return fmt.Errorf("seed %d: replay counted %d/%d/%d/%d attested/rejected/refused/errored, fleet.Run %d/%d/%d/%d",
				cfg.Seed, rp.attested, rp.rejected, rp.refused, rp.errored, rep.Attested, rep.Rejected, rep.Refused, rep.Errored)
		}
		if !telemetry {
			return nil
		}
		streams, planeEvents, err := splitStreams(ref.Events, cfg.Devices, cfg.Rounds)
		if err != nil {
			return err
		}
		key := fmt.Sprintf("seed-%d", cfg.Seed)
		sp := tr.begin("fleet.build_timeline", key, -1)
		tl := fleet.BuildTimeline(streams, planeEvents)
		timeline = append(timeline, usOf(tr.end(sp))/float64(rep.Sessions))
		sp = tr.begin("fleet.metrics", key, -1)
		ref.Plane.ObserveSessionCycles(tl.E2E())
		ref.Plane.Metrics()
		metricsUS = append(metricsUS, usOf(tr.end(sp)))
		events = append(events, float64(len(ref.Events))/float64(rep.Sessions))
		return nil
	})
	perOp := func(v uint64) float64 { return ratio(float64(v), float64(sessions)) }
	r.metrics["core.boot_us"] = median(boot)
	r.metrics["core.load_us"] = median(load)
	r.metrics["rtos.run_slice_us"] = median(slice)
	r.metrics["rtos.switches_per_op"] = perOp(switches)
	r.metrics["rtos.ticks_per_op"] = perOp(ticks)
	r.metrics["machine.sb_compiles_per_op"] = perOp(stats.SBCompiles)
	r.metrics["machine.sb_fallbacks_per_op"] = perOp(stats.SBFallbacks)
	r.metrics["machine.gen_bumps_per_op"] = perOp(stats.GenBumps)
	r.metrics["machine.decode_misses_per_op"] = perOp(stats.DecodeMisses)
	r.metrics["machine.sb_hit_ratio"] = sbHitRatio(stats)
	r.metrics["remote.session_us_p50"] = median(attest)
	r.metrics["remote.wire_wait_us_p50"] = median(wait)
	r.metrics["fleet.plane_self_us_p50"] = median(planeSelf)
	r.metrics["fleet.session_us_p99"] = percentile(plane, 0.99)
	r.metrics["fleet.cache_hit_ratio"] = ratio(float64(hits), float64(lookups))
	if telemetry {
		r.metrics["trace.events_per_session"] = median(events)
		r.metrics["fleet.timeline_us_per_session"] = median(timeline)
		r.metrics["fleet.metrics_us"] = median(metricsUS)
	}
	r.metrics["traced.op_us_p50"] = median(plane)
	r.metrics["traced.ops_per_s"] = median(rates)
	r.metrics["go.alloc_kb_per_op"] = ratio(float64(alloc)/1024, float64(sessions))
	r.info["repetitions"] = float64(ops)
	return nil
}

// addStats sums two machines' counters.
func addStats(a, b machine.Stats) machine.Stats {
	a.InsnRetired += b.InsnRetired
	a.DecodeMisses += b.DecodeMisses
	a.ExecSpanFills += b.ExecSpanFills
	a.DataSpanFills += b.DataSpanFills
	a.GenBumps += b.GenBumps
	a.SBCompiles += b.SBCompiles
	a.SBHits += b.SBHits
	a.SBBails += b.SBBails
	a.SBFallbacks += b.SBFallbacks
	a.SBInvalidations += b.SBInvalidations
	return a
}
