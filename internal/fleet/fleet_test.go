package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/analyze"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/sha1"
	"repro/internal/trace"
	"repro/internal/trusted"
)

func attr(e trace.Event, key string) (string, bool) {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value(), true
		}
	}
	return "", false
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(2)
	r.Register("dev-a")
	r.Register("dev-a") // idempotent

	if d, ok := r.Lookup("dev-a"); !ok || d.State != DeviceHealthy {
		t.Fatalf("fresh device: %+v ok=%v", d, ok)
	}
	if d := r.NoteFail("dev-a"); d.State != DeviceSuspect || d.Failures != 1 {
		t.Fatalf("after one failure: %+v", d)
	}
	if d := r.NotePass("dev-a"); d.State != DeviceHealthy || d.Passes != 1 {
		t.Fatalf("suspect should recover on pass: %+v", d)
	}
	r.NoteFail("dev-a")
	if d := r.NoteFail("dev-a"); d.State != DeviceQuarantined || d.Failures != 3 {
		t.Fatalf("budget exhausted should quarantine: %+v", d)
	}
	// Quarantine is sticky: a later pass does not un-condemn.
	if d := r.NotePass("dev-a"); d.State != DeviceQuarantined {
		t.Fatalf("quarantine must be sticky: %+v", d)
	}
	if !r.Quarantined("dev-a") {
		t.Fatal("Quarantined(dev-a) = false")
	}
	h, s, q := r.Counts()
	if h != 0 || s != 0 || q != 1 {
		t.Fatalf("Counts = %d/%d/%d, want 0/0/1", h, s, q)
	}
}

// TestRegistryConcurrent races registrations, verdicts, quarantines and
// snapshots across goroutines; -race is the assertion, plus conserved
// totals afterwards.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(0)
	const devices = 16
	const perDevice = 48
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := DeviceName(i)
			r.Register(name)
			for k := 0; k < perDevice; k++ {
				switch k % 4 {
				case 0:
					r.NotePass(name)
				case 1:
					r.NoteFail(name)
				case 2:
					r.Lookup(name)
					r.NotePass(name)
				case 3:
					r.Snapshot()
					r.NotePass(name)
				}
			}
		}(i)
	}
	// A racing reader hammering the aggregate views.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 200; k++ {
			r.Counts()
			r.Snapshot()
			r.Len()
		}
	}()
	wg.Wait()

	if r.Len() != devices {
		t.Fatalf("Len = %d, want %d", r.Len(), devices)
	}
	for _, d := range r.Snapshot() {
		if d.Passes != 3*perDevice/4 || d.Failures != perDevice/4 {
			t.Fatalf("%s: passes=%d failures=%d, want %d/%d",
				d.Name, d.Passes, d.Failures, 3*perDevice/4, perDevice/4)
		}
	}
}

func TestCacheHitMiss(t *testing.T) {
	good := sha1.Sum1([]byte("published"))
	bad := sha1.Sum1([]byte("tampered"))
	c := NewCache([]sha1.Digest{good})

	if ok, hit := c.Appraise(good); !ok || hit {
		t.Fatalf("first good appraisal: ok=%v hit=%v, want true/false", ok, hit)
	}
	if ok, hit := c.Appraise(good); !ok || !hit {
		t.Fatalf("second good appraisal: ok=%v hit=%v, want true/true", ok, hit)
	}
	if ok, hit := c.Appraise(bad); ok || hit {
		t.Fatalf("first bad appraisal: ok=%v hit=%v, want false/false", ok, hit)
	}
	if ok, hit := c.Appraise(bad); ok || !hit {
		t.Fatalf("second bad appraisal: ok=%v hit=%v, want false/true", ok, hit)
	}
	if hits, misses := c.Counts(); hits != 2 || misses != 2 {
		t.Fatalf("Counts = %d/%d, want 2/2", hits, misses)
	}

	// Publishing the build invalidates the cached negative verdict.
	c.Allow(bad)
	if ok, hit := c.Appraise(bad); !ok || hit {
		t.Fatalf("appraisal after Allow: ok=%v hit=%v, want true/false", ok, hit)
	}
}

// Concurrent appraisals of the same digest: lookup and fill share one
// critical section, so misses stay equal to the number of distinct
// digests no matter how many devices race.
func TestCacheConcurrentMissCount(t *testing.T) {
	good := sha1.Sum1([]byte("published"))
	c := NewCache([]sha1.Digest{good})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if ok, _ := c.Appraise(good); !ok {
					t.Error("good digest appraised bad")
					return
				}
			}
		}()
	}
	wg.Wait()
	hits, misses := c.Counts()
	if misses != 1 || hits != 32*20-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, 32*20-1)
	}
}

// A quarantined device is refused at the hello — the device sees
// ErrRefused, the plane emits a typed SubFleet/KindFleet refusal event,
// and no challenge is issued.
func TestPlaneQuarantinedRefusal(t *testing.T) {
	reg := NewRegistry(0)
	reg.Register("dev-0000")
	reg.Quarantine("dev-0000")
	buf := new(trace.Buffer)
	client := remote.NewClient(trusted.NewVerifier(core.DevKey, "oem"), "oem", remote.ClientOptions{})
	plane := NewPlane(PlaneConfig{Client: client, Registry: reg, Obs: buf})

	devEnd, planeEnd := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- plane.HandleConn(planeEnd) }()

	// The refusal happens before any challenge, so the device needs no
	// real attestor behind its server.
	srv := remote.NewServer(remote.ComponentsAttestor{}, remote.ServerOptions{})
	err := srv.AttestTo(devEnd, remote.Hello{Device: "dev-0000", Provider: "oem"})
	if !errors.Is(err, remote.ErrRefused) {
		t.Fatalf("AttestTo = %v, want ErrRefused", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("HandleConn = %v", err)
	}

	_, _, refused, _ := plane.Counts()
	if refused != 1 {
		t.Fatalf("refused = %d, want 1", refused)
	}
	if d, _ := reg.Lookup("dev-0000"); d.Refusals != 1 {
		t.Fatalf("registry refusals = %d, want 1", d.Refusals)
	}
	emitted := buf.Events()
	i := slices.IndexFunc(emitted, func(e trace.Event) bool { return e.Kind == trace.KindFleet && e.Subject == "dev-0000" })
	if i < 0 {
		t.Fatalf("no KindFleet event for dev-0000; buffer:\n%s", buf.String())
	}
	ev := emitted[i]
	if ev.Sub != trace.SubFleet {
		t.Fatalf("event subsystem = %v, want SubFleet", ev.Sub)
	}
	if what, _ := attr(ev, "what"); what != "refused" {
		t.Fatalf("event what = %q, want refused", what)
	}
	if reason, _ := attr(ev, "reason"); reason != "quarantined" {
		t.Fatalf("event reason = %q, want quarantined", reason)
	}
}

// An unknown device is refused unless the plane auto-enrolls.
func TestPlaneUnknownDevice(t *testing.T) {
	client := remote.NewClient(trusted.NewVerifier(core.DevKey, "oem"), "oem", remote.ClientOptions{})
	plane := NewPlane(PlaneConfig{Client: client})

	devEnd, planeEnd := net.Pipe()
	go plane.HandleConn(planeEnd)
	srv := remote.NewServer(remote.ComponentsAttestor{}, remote.ServerOptions{})
	err := srv.AttestTo(devEnd, remote.Hello{Device: "dev-9999", Provider: "oem"})
	if !errors.Is(err, remote.ErrRefused) {
		t.Fatalf("AttestTo = %v, want ErrRefused", err)
	}
	if _, ok := plane.Registry().Lookup("dev-9999"); ok {
		t.Fatal("refused device must not be enrolled")
	}
}

// waitGoroutines fails t unless the goroutine count falls back to base
// within a second; exiting goroutines may still be unwinding.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 100 {
			t.Fatalf("goroutines = %d after Serve returned, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Peers that connect and never send cannot wedge the acceptor pool.
// With two acceptors and a 50 ms deadline, each silent connection makes
// HandleConn fail with a typed timeout that errored counts; a device
// session queued behind two silent peers still passes once they time
// out; and closing the listener leaves no goroutine behind.
func TestPlaneSilentPeers(t *testing.T) {
	base := runtime.NumGoroutine()
	known, err := PublishedSet(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(0)
	reg.Register(DeviceName(0))
	client := remote.NewClient(trusted.NewVerifier(core.DevKey, "oem"), "oem", remote.ClientOptions{Timeout: 50 * time.Millisecond})
	plane := NewPlane(PlaneConfig{Client: client, Listeners: 2, Registry: reg, KnownGood: known})
	errored := func() uint64 { _, _, _, n := plane.Counts(); return n }

	var silent []net.Conn
	defer func() {
		for _, c := range silent {
			c.Close()
		}
	}()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		devEnd, planeEnd := memPipe()
		silent = append(silent, devEnd)
		go func() { errs <- plane.HandleConn(planeEnd) }()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, remote.ErrTimeout) {
			t.Fatalf("HandleConn on a silent peer = %v, want ErrTimeout", err)
		}
	}
	if n := errored(); n != 2 {
		t.Fatalf("errored = %d after two silent peers, want 2", n)
	}

	// The same through the pool: two silent peers take both acceptors,
	// and the device's dial waits until one of them times out.
	ln := newMemListener()
	served := make(chan struct{})
	go func() {
		plane.Serve(ln)
		close(served)
	}()
	for i := 0; i < 2; i++ {
		c, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		silent = append(silent, c)
	}
	cfg, err := Config{Devices: 1}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if dev := runDevice(cfg, 0, 0, false, ln); dev.err != nil || dev.ok != 1 {
		t.Fatalf("device behind silent peers: ok=%d denied=%d refused=%d errored=%d err=%v",
			dev.ok, dev.denied, dev.refused, dev.errored, dev.err)
	}
	ln.Close()
	<-served
	if n := errored(); n != 4 {
		t.Fatalf("errored = %d after four silent peers, want 4", n)
	}

	waitGoroutines(t, base)
}

// helloFrame is a device's hello frame for dev-0000, its payload padded
// with zero bytes to pad bytes when pad is larger.
func helloFrame(pad int) []byte {
	dev, provider := DeviceName(0), "oem"
	payload := append([]byte{byte(len(dev))}, dev...)
	payload = append(append(payload, byte(len(provider))), provider...)
	payload = append(payload, make([]byte, 16)...) // TruncID, Session
	if len(payload) < pad {
		payload = append(payload, make([]byte, pad-len(payload))...)
	}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(1+len(payload)))
	return append(append(frame, remote.MsgHello), payload...)
}

// Hostile peers on the farm's own transport cannot wedge the plane. A
// flooder sends a hello padded to the frame limit and keeps writing
// without reading; its writes fail with ErrConnFull once 64 KiB sit
// unread, and the plane rejects the hello as malformed. A staller
// writes half a hello frame and goes quiet; the plane's 50 ms deadline
// ends the session. Either way HandleConn returns a typed error that
// errored counts, both directly and through the acceptor pool, a
// registered device's session afterwards passes, and closing the
// listener leaves no goroutine behind.
func TestPlaneHostilePeers(t *testing.T) {
	known, err := PublishedSet(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Config{Devices: 1}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		peer func(t *testing.T, c net.Conn)
		want error
	}{
		{"flood", func(t *testing.T, c net.Conn) {
			if _, err := c.Write(helloFrame(remote.DefaultMaxFrame - 1)); err != nil {
				t.Errorf("hello write: %v", err)
				return
			}
			// The plane may close before the buffer fills.
			flood := make([]byte, 1000)
			for {
				if _, err := c.Write(flood); err != nil {
					if !errors.Is(err, ErrConnFull) && !errors.Is(err, io.ErrClosedPipe) {
						t.Errorf("flood write = %v, want ErrConnFull or io.ErrClosedPipe", err)
					}
					return
				}
			}
		}, remote.ErrBadMessage},
		{"half-frame", func(t *testing.T, c net.Conn) {
			frame := helloFrame(0)
			if _, err := c.Write(frame[:len(frame)/2]); err != nil {
				t.Errorf("half-frame write: %v", err)
			}
		}, remote.ErrTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			reg := NewRegistry(0)
			reg.Register(DeviceName(0))
			client := remote.NewClient(trusted.NewVerifier(core.DevKey, "oem"), "oem", remote.ClientOptions{Timeout: 50 * time.Millisecond})
			plane := NewPlane(PlaneConfig{Client: client, Listeners: 2, Registry: reg, KnownGood: known})
			errored := func() uint64 { _, _, _, n := plane.Counts(); return n }

			// Writes never block, so the peer runs to completion first.
			devEnd, planeEnd := memPipe()
			defer devEnd.Close()
			tc.peer(t, devEnd)
			if err := plane.HandleConn(planeEnd); !errors.Is(err, tc.want) {
				t.Fatalf("HandleConn = %v, want %v", err, tc.want)
			}
			if n := errored(); n != 1 {
				t.Fatalf("errored = %d after one hostile peer, want 1", n)
			}

			ln := newMemListener()
			served := make(chan struct{})
			go func() {
				plane.Serve(ln)
				close(served)
			}()
			c, err := ln.Dial()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			tc.peer(t, c)
			if dev := runDevice(cfg, 0, 0, false, ln); dev.err != nil || dev.ok != 1 {
				t.Fatalf("device after a hostile peer: ok=%d denied=%d refused=%d errored=%d err=%v",
					dev.ok, dev.denied, dev.refused, dev.errored, dev.err)
			}
			ln.Close()
			<-served
			if n := errored(); n != 2 {
				t.Fatalf("errored = %d after two hostile peers, want 2", n)
			}
			waitGoroutines(t, base)
		})
	}
}

// A flood of hellos from unregistered names is refused at the door
// without enrolling anyone or wedging the pool: 64 concurrent hellos
// through a two-acceptor plane each see ErrRefused, refused reads 64,
// the registry keeps its size, a registered device's session afterwards
// passes, and closing the listener leaves no goroutine behind.
func TestPlaneHelloFlood(t *testing.T) {
	base := runtime.NumGoroutine()
	known, err := PublishedSet(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(0)
	reg.Register(DeviceName(0))
	before := reg.Len()
	client := remote.NewClient(trusted.NewVerifier(core.DevKey, "oem"), "oem", remote.ClientOptions{})
	plane := NewPlane(PlaneConfig{Client: client, Listeners: 2, Registry: reg, KnownGood: known})

	ln := newMemListener()
	served := make(chan struct{})
	go func() {
		plane.Serve(ln)
		close(served)
	}()

	const flood = 64
	errs := make(chan error, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := ln.Dial()
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			// Refused at the hello: no attestor is ever asked.
			srv := remote.NewServer(remote.ComponentsAttestor{}, remote.ServerOptions{})
			errs <- srv.AttestTo(conn, remote.Hello{Device: fmt.Sprintf("intruder-%02d", i), Provider: "oem"})
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, remote.ErrRefused) {
			t.Fatalf("flood hello = %v, want ErrRefused", err)
		}
	}
	if _, _, refused, _ := plane.Counts(); refused != flood {
		t.Fatalf("refused = %d, want %d", refused, flood)
	}
	if n := reg.Len(); n != before {
		t.Fatalf("registry Len = %d after the flood, want %d", n, before)
	}

	cfg, err := Config{Devices: 1}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if dev := runDevice(cfg, 0, 0, false, ln); dev.err != nil || dev.ok != 1 {
		t.Fatalf("device after the flood: ok=%d denied=%d refused=%d errored=%d err=%v",
			dev.ok, dev.denied, dev.refused, dev.errored, dev.err)
	}
	ln.Close()
	<-served

	waitGoroutines(t, base)
}

// A small end-to-end farm: healthy devices attest every round, the
// faulty device burns its failure budget, is quarantined, and its later
// hellos are refused. Cache misses equal the number of distinct
// measurements the plane saw.
// TestMergedStreamTaskWindows: the fleet's combined event stream
// concatenates device lanes whose cycle counters restart at boot. No
// reconstructed span may run backwards across a lane boundary, and two
// concatenated single-device streams yield the task windows each yields
// alone.
func TestMergedStreamTaskWindows(t *testing.T) {
	res, err := Run(Config{Devices: 4, Rounds: 3, CollectEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range analyze.Analyze(res.Events).Spans {
		if s.End < s.Start {
			t.Errorf("span runs backwards: %+v", s)
		}
	}

	var lanes [][]trace.Event
	var want []analyze.Span
	for _, rounds := range []int{3, 1} {
		res, err := Run(Config{Devices: 1, Rounds: rounds, CollectEvents: true})
		if err != nil {
			t.Fatal(err)
		}
		lanes = append(lanes, res.Events)
		want = append(want, taskWindows(analyze.Analyze(res.Events))...)
	}
	got := taskWindows(analyze.Analyze(append(append([]trace.Event(nil), lanes[0]...), lanes[1]...)))
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("merged task windows:\n got %+v\nwant %+v", got, want)
	}
}

// taskWindows returns the analysis's task spans ordered by subject,
// start and end.
func taskWindows(a *analyze.Analysis) []analyze.Span {
	var out []analyze.Span
	for _, s := range a.Spans {
		if s.Class == analyze.ClassTask {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i], out[j]
		if x.Subject != y.Subject {
			return x.Subject < y.Subject
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End < y.End
	})
	return out
}

func TestFarmQuarantinesFaultyDevice(t *testing.T) {
	cfg := Config{
		Devices: 8, Rounds: 5, Shards: 4, Seed: 7,
		Variants: 2, Faulty: 1, MaxFailures: 2, CollectEvents: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report

	if rep.Quarantined != 1 || len(rep.QuarantinedNames) != 1 {
		t.Fatalf("quarantined = %d (%v), want exactly 1", rep.Quarantined, rep.QuarantinedNames)
	}
	if rep.Healthy != 7 {
		t.Fatalf("healthy = %d, want 7", rep.Healthy)
	}
	// The faulty device fails MaxFailures appraisals, then its remaining
	// rounds are refused at the door.
	if rep.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", rep.Rejected)
	}
	if rep.Refused != 3 {
		t.Fatalf("refused = %d, want 3", rep.Refused)
	}
	if want := uint64(7 * 5); rep.Attested != want {
		t.Fatalf("attested = %d, want %d", rep.Attested, want)
	}
	if rep.Sessions != uint64(8*5) {
		t.Fatalf("sessions = %d, want %d", rep.Sessions, 8*5)
	}
	// Distinct measurements seen = distinct assigned variants + the one
	// unpublished build; every other appraisal is a cache hit.
	if rep.CacheMisses == 0 || rep.CacheMisses > uint64(cfg.Variants+1) {
		t.Fatalf("cache misses = %d, want within [1, %d]", rep.CacheMisses, cfg.Variants+1)
	}
	if rep.CacheHits+rep.CacheMisses != rep.Attested+rep.Rejected {
		t.Fatalf("cache totals %d+%d should equal appraisals %d",
			rep.CacheHits, rep.CacheMisses, rep.Attested+rep.Rejected)
	}
	if len(rep.Anomalies) != 1 || !rep.Anomalies[0].Faulty {
		t.Fatalf("anomalies = %+v, want the one faulty device", rep.Anomalies)
	}
	if got, want := rep.Anomalies[0].Name, rep.QuarantinedNames[0]; got != want {
		t.Fatalf("anomaly %s vs quarantined %s", got, want)
	}
	// Observability: every completed exchange produced an RTT span.
	if rep.AttestRTT.Count != int(rep.Attested+rep.Rejected) {
		t.Fatalf("rtt spans = %d, want %d", rep.AttestRTT.Count, rep.Attested+rep.Rejected)
	}
	if rep.AttestRTT.Min == 0 {
		t.Fatal("rtt min = 0, want positive cycles")
	}
}

// fleetRow is a fleet run as a contract row. Its output is everything
// a run must reproduce however it is scheduled: the full report, with
// its shard and acceptor-pool echo normalised away, then the event
// stream. A "shards/listeners" axis ("3/2") varies the pools, and the
// "telemetry" toggle turns the full telemetry stack on.
func fleetRow(name string, cfg Config, axes ...contract.Axis) contract.Row {
	return contract.Row{Name: name, Axes: axes, Produce: func(t *testing.T, at contract.Point) []byte {
		if sl := at["shards/listeners"]; sl != "" {
			fmt.Sscanf(sl, "%d/%d", &cfg.Shards, &cfg.Listeners)
		}
		cfg.Telemetry = TelemetryConfig{}
		if at.On("telemetry") {
			cfg.Telemetry = TelemetryConfig{Timeline: true, Metrics: true, FlightSize: 64}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Events) == 0 {
			t.Fatal("no events collected")
		}
		rep := res.Report
		rep.Shards, rep.Listeners = 0, 0 // config echo of the scheduling, not outcome
		out := fmt.Appendf(nil, "%+v\n", rep)
		for _, e := range res.Events {
			out = append(out, e.String()+"\n"...)
		}
		return out
	}}
}

// TestFleetCheck is the fleet determinism gate: the same config renders
// the same report and event stream on both engines, at different
// shard/listener counts racing underneath, with telemetry on or off.
// Device streams are per-device deterministic; plane events are ordered
// by (device, session ordinal).
func TestFleetCheck(t *testing.T) {
	cfg := Config{
		Devices: 24, Rounds: 4, Seed: 42,
		Variants: 3, Faulty: 2, MaxFailures: 2,
		CollectEvents: true,
	}
	contract.Check(t, fleetRow("fleet", cfg,
		contract.Engine, contract.Over("shards/listeners", "3/2", "8/6"), contract.Toggle("telemetry")))
}

// TestPlaneEmitAllocs pins the plane's emit cost: a decision event's
// attrs are copied into the plane's arena, so it allocates nothing of
// its own.
func TestPlaneEmitAllocs(t *testing.T) {
	emitted := 0
	sink := trace.SinkFunc(func(trace.Event) { emitted++ })
	client := remote.NewClient(trusted.NewVerifier(core.DevKey, "oem"), "oem", remote.ClientOptions{})
	p := NewPlane(PlaneConfig{Client: client, Obs: sink})
	d := Device{Name: "dev-0042", State: DeviceSuspect, Failures: 1}
	for _, c := range []struct {
		name string
		emit func()
	}{
		{"pass verdict", func() { p.emitVerdict(d, 3, true, "") }},
		{"fail verdict", func() { p.emitVerdict(d, 3, false, "unknown measurement") }},
		{"refusal", func() { p.emitRefusal(d, 3, "quarantined") }},
	} {
		if got := testing.AllocsPerRun(100, c.emit); got != 0 {
			t.Errorf("%s allocates %v times, want 0", c.name, got)
		}
	}
	if emitted == 0 {
		t.Fatal("no events reached the sink")
	}
}
