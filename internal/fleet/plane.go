package fleet

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/remote"
	"repro/internal/sha1"
	"repro/internal/trace"
)

// Plane is the concurrent verifier plane: a pool of acceptor
// goroutines answers device-initiated attestation sessions over any
// net.Listener. Each session is hello → policy gate (registry) →
// challenge → MAC verification (remote.Client) → identity appraisal
// (cache) → registry verdict. Quarantined and unknown devices are
// refused at the hello, before any crypto runs.
//
// The plane's decisions about a device depend only on that device's
// own history (its registry record) and on the measurement sets, never
// on the interleaving of other devices' sessions — which is what keeps
// a whole fleet run deterministic even though sessions are served
// concurrently.
type Plane struct {
	client     *remote.Client
	reg        *Registry
	cache      *Cache
	listeners  int
	autoEnroll bool
	obs        trace.Sink
	attrMu     sync.Mutex  // guards attrs: acceptors emit concurrently
	attrs      trace.Arena // every emitted event's attrs

	nonce uint64 // last issued nonce (atomic)

	clock  func() int64 // host-ns clock for throughput benchmarks (nil = off)
	hostMu sync.Mutex
	hostNS []int64 // per-session verification-path host durations

	attested uint64 // sessions whose appraisal passed
	rejected uint64 // sessions whose appraisal failed (bad measurement or bad quote)
	refused  uint64 // hellos refused at the door
	errored  uint64 // sessions lost to transport/protocol errors

	acceptors []uint64 // per-acceptor session counts (atomic; Serve only)

	// sessionCycles / sessionHostNS are the session-duration histograms
	// behind Metrics(): device-cycle end-to-end latencies (fed by
	// ObserveSessionCycles, deterministic) and host-ns verification-path
	// times (fed per session when Clock is set, benchmark-only).
	sessionCycles *trace.Histogram
	sessionHostNS *trace.Histogram

	metricsOnce sync.Once
	metrics     *trace.Registry
}

// PlaneConfig parameterizes a verifier plane.
type PlaneConfig struct {
	// Client drives the wire exchanges and holds the provider's
	// verification key. Required.
	Client *remote.Client
	// Listeners is the acceptor-pool size: how many sessions the plane
	// serves concurrently (0 = 4).
	Listeners int
	// Registry is the fleet's device table (nil = a fresh registry with
	// the default failure budget).
	Registry *Registry
	// KnownGood is the published measurement set devices must match.
	KnownGood []sha1.Digest
	// AutoEnroll registers unknown devices on first hello instead of
	// refusing them (external/demo mode; fleets under test pre-register).
	AutoEnroll bool
	// Obs, when non-nil, receives typed SubFleet/KindFleet events for
	// refusals and appraisal verdicts. Event cycles are the device's own
	// session ordinal, so the stream is deterministic per device.
	Obs trace.Sink
	// NonceBase offsets the plane's nonce sequence (seed-dependent
	// freshness domains for deterministic runs).
	NonceBase uint64
	// Clock, when non-nil, is a host-ns clock; the plane times each
	// session's verification path with it for throughput benchmarks.
	// Host timings never feed deterministic outputs; keep nil outside
	// benchmarks.
	Clock func() int64
}

// NewPlane builds a verifier plane.
func NewPlane(cfg PlaneConfig) *Plane {
	if cfg.Client == nil {
		panic("fleet: PlaneConfig.Client is required")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = NewRegistry(0)
	}
	listeners := cfg.Listeners
	if listeners <= 0 {
		listeners = 4
	}
	return &Plane{
		client:     cfg.Client,
		reg:        reg,
		cache:      NewCache(cfg.KnownGood),
		listeners:  listeners,
		autoEnroll: cfg.AutoEnroll,
		obs:        cfg.Obs,
		nonce:      cfg.NonceBase,
		clock:      cfg.Clock,
		acceptors:  make([]uint64, listeners),
		// Cycle buckets span the observed e2e range (~a quote's HMAC
		// cost up to a congested fleet round-trip); ns buckets span
		// 1µs–100ms of host verification path.
		sessionCycles: trace.NewHistogram(10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000),
		sessionHostNS: trace.NewHistogram(1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000),
	}
}

// Registry returns the plane's device table.
func (p *Plane) Registry() *Registry { return p.reg }

// Cache returns the plane's appraisal cache.
func (p *Plane) Cache() *Cache { return p.cache }

// Counts returns the plane's session totals: appraisals passed,
// appraisals failed, hellos refused, sessions lost to transport errors.
func (p *Plane) Counts() (attested, rejected, refused, errored uint64) {
	return atomic.LoadUint64(&p.attested), atomic.LoadUint64(&p.rejected),
		atomic.LoadUint64(&p.refused), atomic.LoadUint64(&p.errored)
}

// seq is a device record's session ordinal — how many verdicts and
// refusals the plane has issued about it. Used as the event cycle so
// each device's fleet events are deterministically ordered even though
// sessions interleave across devices.
func seq(d Device) uint64 {
	return uint64(d.Passes + d.Failures + d.Refusals)
}

// emitRefusal stamps a typed refusal event. The session attribute
// echoes the device-reported session ordinal from the hello — the
// correlation key that joins this plane-side decision with the
// device-side KindSession events for the same session.
func (p *Plane) emitRefusal(d Device, session uint64, reason string) {
	if p.obs == nil {
		return
	}
	p.emit(d, trace.Str("what", "refused"), trace.Str("reason", reason), trace.Num("session", session))
}

// emitVerdict stamps a typed appraisal-verdict event. Which session
// warms the appraisal cache is a scheduling accident, so hit/miss is
// deliberately absent here — the cache's aggregate counters are the
// deterministic view.
func (p *Plane) emitVerdict(d Device, session uint64, pass bool, reason string) {
	if p.obs == nil {
		return
	}
	result := "pass"
	if !pass {
		result = "fail"
	}
	var buf [5]trace.Attr
	attrs := append(buf[:0],
		trace.Str("what", "verdict"),
		trace.Str("result", result),
		trace.Str("state", d.State.String()),
	)
	if reason != "" {
		attrs = append(attrs, trace.Str("reason", reason))
	}
	p.emit(d, append(attrs, trace.Num("session", session))...)
}

// emit stamps a decision event about d, its attrs copied into the
// plane's arena so the callers' attrs stay on their stacks.
func (p *Plane) emit(d Device, attrs ...trace.Attr) {
	p.attrMu.Lock()
	kept := p.attrs.Copy(attrs...)
	p.attrMu.Unlock()
	p.obs.Emit(trace.Event{
		Cycle: seq(d), Sub: trace.SubFleet, Kind: trace.KindFleet,
		Subject: d.Name, Attrs: kept,
	})
}

// HandleConn serves one device-initiated session and closes the
// connection. Refusals and failed appraisals are normal outcomes
// (recorded, nil error); the error return reports transport and
// protocol failures only.
func (p *Plane) HandleConn(conn net.Conn) error {
	defer conn.Close()
	if p.clock != nil {
		start := p.clock()
		defer func() {
			d := p.clock() - start
			p.hostMu.Lock()
			p.hostNS = append(p.hostNS, d)
			p.hostMu.Unlock()
			if d > 0 {
				p.sessionHostNS.Observe(uint64(d))
			}
		}()
	}
	h, err := p.client.AwaitHello(conn)
	if err != nil {
		atomic.AddUint64(&p.errored, 1)
		return err
	}
	if h.Provider != p.client.Provider() {
		atomic.AddUint64(&p.refused, 1)
		p.emitRefusal(Device{Name: h.Device}, h.Session, "unknown provider")
		p.client.Refuse(conn, fmt.Sprintf("unknown provider %q", h.Provider))
		return nil
	}
	if _, ok := p.reg.Lookup(h.Device); !ok {
		if !p.autoEnroll {
			atomic.AddUint64(&p.refused, 1)
			p.emitRefusal(Device{Name: h.Device}, h.Session, "unknown device")
			p.client.Refuse(conn, "unknown device")
			return nil
		}
		p.reg.Register(h.Device)
	}
	if p.reg.Quarantined(h.Device) {
		atomic.AddUint64(&p.refused, 1)
		p.emitRefusal(p.reg.noteRefusal(h.Device), h.Session, "quarantined")
		p.client.Refuse(conn, "device quarantined")
		return nil
	}

	nonce := atomic.AddUint64(&p.nonce, 1)
	q, err := p.client.Challenge(conn, h.TruncID, nonce)
	if err != nil {
		// The exchange itself failed — bad MAC, stale nonce, malformed
		// frames, or a dead connection. All count against the device's
		// budget: a device that cannot produce a valid fresh quote is
		// exactly what the budget exists for.
		atomic.AddUint64(&p.rejected, 1)
		p.emitVerdict(p.reg.NoteFail(h.Device), h.Session, false, "bad quote")
		p.client.Verdict(conn, false, "bad quote") // best-effort; conn may be dead
		return err
	}
	// Record the outcome before the verdict frame: the device blocks on
	// the verdict, so its next hello is guaranteed to see this session's
	// registry state — the ordering the fleet's determinism rests on.
	ok, _ := p.cache.Appraise(q.ID)
	if !ok {
		atomic.AddUint64(&p.rejected, 1)
		p.emitVerdict(p.reg.NoteFail(h.Device), h.Session, false, "unknown measurement")
		return p.client.Verdict(conn, false, "unknown measurement")
	}
	atomic.AddUint64(&p.attested, 1)
	p.emitVerdict(p.reg.NotePass(h.Device), h.Session, true, "")
	return p.client.Verdict(conn, true, "")
}

// HostDurations returns the sorted per-session verification-path host
// durations (ns) recorded via PlaneConfig.Clock; nil when no clock was
// set. Benchmark-only data — not deterministic.
func (p *Plane) HostDurations() []int64 {
	p.hostMu.Lock()
	out := make([]int64, len(p.hostNS))
	copy(out, p.hostNS)
	p.hostMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Serve runs the acceptor pool over l until Accept fails (listener
// closed). Each acceptor serves its sessions inline, so the pool size
// bounds the plane's concurrency.
func (p *Plane) Serve(l net.Listener) {
	var wg sync.WaitGroup
	for i := 0; i < p.listeners; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				p.HandleConn(conn)
				atomic.AddUint64(&p.acceptors[slot], 1)
			}
		}(i)
	}
	wg.Wait()
}

// AcceptorSessions returns how many sessions each acceptor slot has
// served — the pool-utilization view behind the fleet metrics. Which
// acceptor serves which session is a scheduling accident, so the
// per-slot split is not deterministic (the sum is).
func (p *Plane) AcceptorSessions() []uint64 {
	out := make([]uint64, len(p.acceptors))
	for i := range p.acceptors {
		out[i] = atomic.LoadUint64(&p.acceptors[i])
	}
	return out
}

// ObserveSessionCycles feeds the deterministic session-duration
// histogram (device-cycle end-to-end latencies, from the device-side
// telemetry) exported by Metrics().
func (p *Plane) ObserveSessionCycles(durations []uint64) {
	for _, d := range durations {
		p.sessionCycles.Observe(d)
	}
}
