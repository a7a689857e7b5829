package fleet

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/trusted"
)

// fleetRunSink keeps the benchmarked runs' results live.
var fleetRunSink *Result

// BenchmarkFleetRun runs the bench/ fleet workload's configuration once
// per iteration: 256 devices × 20 rounds at seed 1 (4 faulty, 2 shards,
// 2 acceptors), with telemetry off and with the fleet-telemetry
// products on.
func BenchmarkFleetRun(b *testing.B) {
	for _, bc := range []struct {
		name string
		tel  TelemetryConfig
	}{
		{"telemetry=off", TelemetryConfig{}},
		{"telemetry=on", TelemetryConfig{Timeline: true, Metrics: true, FlightSize: 64}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Config{Devices: 256, Rounds: 20, Faulty: 4, Shards: 2, Listeners: 2, Seed: 1, Telemetry: bc.tel}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				fleetRunSink = res
			}
		})
	}
}

// planeSessionRig returns one plane session as a function of its
// ordinal: a device's remote.Server.AttestTo against Plane.HandleConn
// over a fresh memPipe, hello to verdict, with the quote's MAC checked
// and the appraisal cache warm after the first call.
func planeSessionRig(tb testing.TB) func(i int) error {
	p, err := core.NewPlatform(core.Options{Provider: "oem", RAMSize: 2 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(p.Close)
	im, err := VariantImage(0)
	if err != nil {
		tb.Fatal(err)
	}
	tcb, _, err := p.LoadTaskSync(im, core.Secure, 3)
	if err != nil {
		tb.Fatal(err)
	}
	e, ok := p.C.RTM.LookupByTask(tcb.ID)
	if !ok {
		tb.Fatal("task unregistered after load")
	}
	known, err := PublishedSet(1)
	if err != nil {
		tb.Fatal(err)
	}
	reg := NewRegistry(0)
	reg.Register(DeviceName(0))
	client := remote.NewClient(trusted.NewVerifier(core.DevKey, "oem"), "oem", remote.ClientOptions{})
	plane := NewPlane(PlaneConfig{Client: client, Registry: reg, KnownGood: known})
	srv := remote.NewServer(remote.ComponentsAttestor{C: p.C}, remote.ServerOptions{})
	hello := remote.Hello{Device: DeviceName(0), Provider: "oem", TruncID: e.TruncID}
	served := make(chan error, 1)
	return func(i int) error {
		devEnd, planeEnd := memPipe()
		go func() { served <- plane.HandleConn(planeEnd) }()
		hello.Session = uint64(i)
		if err := srv.AttestTo(devEnd, hello); err != nil {
			return err
		}
		devEnd.Close()
		return <-served
	}
}

// BenchmarkPlaneSession is one plane session (see planeSessionRig).
func BenchmarkPlaneSession(b *testing.B) {
	session := planeSessionRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := session(i); err != nil {
			b.Fatal(err)
		}
	}
}

// Host allocations of one plane session (linux/amd64, Go 1.24). They
// were 33 allocations and 1,328 B before the one-timer memPipe, its
// reused buffers and the one-allocation frame codec.
const (
	planeSessionAllocs = 17
	planeSessionBytes  = 1328
)

// TestPlaneSessionAllocs holds one plane session to its allocation
// count and to the bytes it allocated before the codec and memPipe
// work, read from runtime.MemStats around a run of warm sessions.
func TestPlaneSessionAllocs(t *testing.T) {
	session := planeSessionRig(t)
	const warm, n = 10, 1000
	for i := 0; i < warm; i++ {
		if err := session(i); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+n; i++ {
		if err := session(i); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if allocs := (after.Mallocs - before.Mallocs) / n; allocs > planeSessionAllocs {
		t.Errorf("plane session made %d allocations, want at most %d", allocs, planeSessionAllocs)
	}
	if bytes := (after.TotalAlloc - before.TotalAlloc) / n; bytes > planeSessionBytes {
		t.Errorf("plane session allocated %d B, want at most %d B", bytes, planeSessionBytes)
	}
}
