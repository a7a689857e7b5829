package fleet

import (
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

// BenchmarkPlaneSession is one plane session: a device's
// remote.Server.AttestTo against Plane.HandleConn over a memPipe, hello
// to verdict, with the quote's MAC checked and the appraisal cache warm.
func BenchmarkPlaneSession(b *testing.B) {
	p, err := core.NewPlatform(core.Options{Provider: "oem", RAMSize: 2 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	im, err := VariantImage(0)
	if err != nil {
		b.Fatal(err)
	}
	tcb, _, err := p.LoadTaskSync(im, core.Secure, 3)
	if err != nil {
		b.Fatal(err)
	}
	e, ok := p.C.RTM.LookupByTask(tcb.ID)
	if !ok {
		b.Fatal("task unregistered after load")
	}
	known, err := PublishedSet(1)
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry(0)
	reg.Register(DeviceName(0))
	client := remote.NewClient(trusted.NewVerifier(core.DevKey, "oem"), "oem", remote.ClientOptions{})
	plane := NewPlane(PlaneConfig{Client: client, Registry: reg, KnownGood: known})
	srv := remote.NewServer(remote.ComponentsAttestor{C: p.C}, remote.ServerOptions{})
	hello := remote.Hello{Device: DeviceName(0), Provider: "oem", TruncID: e.TruncID}
	served := make(chan error, 1)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		devEnd, planeEnd := memPipe()
		go func() { served <- plane.HandleConn(planeEnd) }()
		hello.Session = uint64(i)
		if err := srv.AttestTo(devEnd, hello); err != nil {
			b.Fatal(err)
		}
		devEnd.Close()
		if err := <-served; err != nil {
			b.Fatal(err)
		}
	}
}
