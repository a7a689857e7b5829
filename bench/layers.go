package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/analyze"
	"repro/internal/benchlab"
	"repro/internal/core"
	"repro/internal/eampu"
	"repro/internal/fleet"
	"repro/internal/hcrypto"
	"repro/internal/loader"
	"repro/internal/machine"
	"repro/internal/remote"
	"repro/internal/sha1"
	"repro/internal/telf"
	"repro/internal/trace"
	"repro/internal/trusted"
)

// layerBench is one per-layer micro-benchmark on the workloads' real
// inputs. Its value is what the body reports with b.ReportMetric under
// the bench's name, or else its time per op in the bench's unit.
type layerBench struct {
	name, unit string
	fn         func(b *testing.B)
}

var layerBenches = []layerBench{
	{"sha1.block_ns", "ns", benchSHA1Block},
	{"hcrypto.hmac_ns", "ns", benchHMAC},
	{"trusted.verify_mac_ns", "ns", benchVerifyMAC},
	{"trusted.measure_us", "us", benchMeasure},
	{"loader.reloc_ns", "ns", benchReloc},
	{"eampu.check_data_ns", "ns", benchCheckData},
	{"eampu.check_exec_ns", "ns", benchCheckExec},
	{"fleet.appraise_ns", "ns", benchAppraise},
	{"fleet.registry_note_ns", "ns", benchRegistryNote},
	{"remote.session_pipe_us", "us", benchSessionPipe},
	{"fleet.recorder_emit_ns", "ns", benchRecorderEmit},
	{"analyze.ns_per_event", "ns", benchAnalyze},
}

// runLayerBenches runs every micro-benchmark for cfg.benchtime each and
// records its value; each counts as one checked op.
func runLayerBenches(r *runState) error {
	if _, err := getFixtures(); err != nil {
		return fmt.Errorf("layer fixtures: %w", err)
	}
	prev := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", r.cfg.benchtime); err != nil {
		return err
	}
	defer flag.Set("test.benchtime", prev)
	for _, l := range layerBenches {
		res := testing.Benchmark(l.fn)
		if res.N == 0 {
			r.check(fmt.Errorf("layer benchmark %s failed", l.name))
			r.metrics[l.name] = 0
			continue
		}
		r.check(nil)
		v, ok := res.Extra[l.name]
		if !ok {
			v = float64(res.T.Nanoseconds()) / float64(res.N)
			if l.unit == "us" {
				v /= 1e3
			}
		}
		r.metrics[l.name] = v
	}
	return nil
}

// fixtures are the micro-benchmarks' inputs, built once: a booted
// platform with the use case's t0, t1 and t2 loaded, Table 4's
// canonical relocation image, the fleet's published builds, and the
// event stream of one fleet repetition.
type fixtures struct {
	p      *core.Platform
	t0, t2 *trusted.RegistryEntry
	canon  *telf.Image
	known  []sha1.Digest
	ka     []byte        // the fleet provider's attestation key
	events []trace.Event // the whole collected stream
	dev0   []trace.Event // device 0's stream
}

var (
	fixOnce sync.Once
	fix     *fixtures
	fixErr  error
)

func getFixtures() (*fixtures, error) {
	fixOnce.Do(func() { fix, fixErr = buildFixtures() })
	return fix, fixErr
}

func buildFixtures() (*fixtures, error) {
	f := &fixtures{canon: benchlab.CanonicalCreationImage()}
	p, err := core.NewPlatform(core.Options{EngineHistory: 1 << 16})
	if err != nil {
		return nil, err
	}
	f.p = p
	t0 := benchlab.UseCaseTaskImage(tagT0, useCasePeriod)
	t0.Name = "t0"
	t1 := benchlab.UseCaseTaskImage(tagT1, useCasePeriod)
	t1.Name = "t1"
	var ids []*trusted.RegistryEntry
	for _, im := range []*telf.Image{t0, t1, benchlab.UseCaseT2Image(tagT2, useCasePeriod)} {
		tcb, _, err := p.LoadTaskSync(im, core.Secure, 5)
		if err != nil {
			return nil, err
		}
		e, ok := p.C.RTM.LookupByTask(tcb.ID)
		if !ok {
			return nil, fmt.Errorf("%s unregistered after load", im.Name)
		}
		ids = append(ids, e)
	}
	f.t0, f.t2 = ids[0], ids[2]
	if f.known, err = fleet.PublishedSet(fleetVariants); err != nil {
		return nil, err
	}
	f.ka = hcrypto.DeriveKey(core.DevKey, trusted.AttestLabel, []byte(fleetProvider))
	cfg := fleetConfig(1, false)
	cfg.CollectEvents = true
	res, err := fleet.Run(cfg)
	if err != nil {
		return nil, err
	}
	f.events = res.Events
	streams, _, err := splitStreams(res.Events, cfg.Devices, cfg.Rounds)
	if err != nil {
		return nil, err
	}
	f.dev0 = streams[0].Events
	return f, nil
}

func mustFixtures(b *testing.B) *fixtures {
	f, err := getFixtures()
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// Sinks keep the compiler from discarding benchmarked results.
var (
	sinkDigest sha1.Digest
	sinkBool   bool
)

// quoteFor builds a valid quote: the MAC over id ‖ nonce under ka, as
// the device's Remote Attest component computes it.
func quoteFor(ka []byte, id sha1.Digest, nonce uint64) trusted.Quote {
	msg := binary.LittleEndian.AppendUint64(append([]byte(nil), id[:]...), nonce)
	return trusted.Quote{ID: id, Nonce: nonce, MAC: hcrypto.HMAC(ka, msg)}
}

// fixedAttestor answers every challenge with a valid quote for one
// identity, so a session costs the wire and the verifier but no
// simulated device.
type fixedAttestor struct {
	ka []byte
	id sha1.Digest
}

func (a fixedAttestor) QuoteByTruncID(_ string, _, nonce uint64) (trusted.Quote, error) {
	return quoteFor(a.ka, a.id, nonce), nil
}

func benchSHA1Block(b *testing.B) {
	f := mustFixtures(b)
	im := f.t2.Image
	block := append(append([]byte(nil), im.Text...), im.Data...)[:sha1.BlockSize]
	s := sha1.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.WriteBlock(block)
	}
}

func benchHMAC(b *testing.B) {
	f := mustFixtures(b)
	msg := binary.LittleEndian.AppendUint64(append([]byte(nil), f.known[0][:]...), 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDigest = hcrypto.HMAC(f.ka, msg)
	}
}

func benchVerifyMAC(b *testing.B) {
	f := mustFixtures(b)
	v := trusted.NewVerifier(core.DevKey, fleetProvider)
	q := quoteFor(f.ka, f.known[0], 42)
	if err := v.VerifyMAC(q, 42); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = v.VerifyMAC(q, 42) == nil
	}
}

func benchMeasure(b *testing.B) {
	f := mustFixtures(b)
	rtm, e := f.p.C.RTM, f.t2
	job := rtm.NewMeasureJob(e.Image, e.Placement.Base, nil)
	if _, err := job.Run(); err != nil {
		b.Fatal(err)
	}
	if id, _ := job.Identity(); id != e.ID {
		b.Fatalf("RTM measured %x, registry holds %x", id, e.ID)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rtm.NewMeasureJob(e.Image, e.Placement.Base, nil).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchReloc(b *testing.B) {
	f := mustFixtures(b)
	im := f.canon
	m := machine.New(1 << 20)
	defer m.Release()
	pl := loader.Placement{Image: im, Base: 0x10000}
	if err := m.LoadBytes(pl.Base, append(append([]byte(nil), im.Text...), im.Data...)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := loader.ApplyRelocation(m, pl, im.Relocs[i%len(im.Relocs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCheckData(b *testing.B) {
	f := mustFixtures(b)
	mpu := f.p.M.MPU
	pc, addr := f.t0.Placement.TextBase(), f.t0.Placement.StackBase()
	if err := mpu.CheckData(pc, eampu.AccessRead, addr, 4); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = mpu.CheckData(pc, eampu.AccessRead, addr, 4) == nil
	}
}

func benchCheckExec(b *testing.B) {
	f := mustFixtures(b)
	mpu := f.p.M.MPU
	pc := f.t0.Placement.TextBase()
	if err := mpu.CheckExec(pc, pc+4, true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = mpu.CheckExec(pc, pc+4, true) == nil
	}
}

func benchAppraise(b *testing.B) {
	f := mustFixtures(b)
	c := fleet.NewCache(f.known)
	for _, d := range f.known {
		c.Appraise(d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool, _ = c.Appraise(f.known[i%len(f.known)])
	}
}

func benchRegistryNote(b *testing.B) {
	reg := fleet.NewRegistry(0)
	names := make([]string, fleetDevices)
	for i := range names {
		names[i] = fleet.DeviceName(i)
		reg.Register(names[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.NotePass(names[i%len(names)])
	}
}

// benchSessionPipe times one whole session — hello, challenge, quote,
// verdict — over net.Pipe between remote.Server.AttestTo and a
// remote.Client playing the plane.
func benchSessionPipe(b *testing.B) {
	f := mustFixtures(b)
	id := f.known[0]
	client := remote.NewClient(trusted.NewVerifier(core.DevKey, fleetProvider), fleetProvider, remote.ClientOptions{})
	srv := remote.NewServer(fixedAttestor{ka: f.ka, id: id}, remote.ServerOptions{})
	hello := remote.Hello{Device: fleet.DeviceName(0), Provider: fleetProvider, TruncID: id.TruncatedID()}
	plane := func(conn net.Conn, nonce uint64) error {
		defer conn.Close()
		h, err := client.AwaitHello(conn)
		if err != nil {
			return err
		}
		q, err := client.Challenge(conn, h.TruncID, nonce)
		if err != nil {
			return err
		}
		return client.Verdict(conn, q.ID == id, "")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev, pl := net.Pipe()
		errc := make(chan error, 1)
		go func(nonce uint64) { errc <- plane(pl, nonce) }(uint64(i) + 1)
		err := srv.AttestTo(dev, hello)
		dev.Close()
		if err := errors.Join(err, <-errc); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRecorderEmit(b *testing.B) {
	f := mustFixtures(b)
	rec := fleet.NewRecorder(fleet.DeviceName(0), fleetFlight)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Emit(f.events[i%len(f.events)])
	}
}

func benchAnalyze(b *testing.B) {
	f := mustFixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyze.Analyze(f.dev0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(f.dev0)), "analyze.ns_per_event")
}
