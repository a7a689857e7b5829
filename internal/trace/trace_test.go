package trace

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func sample() *Buffer {
	b := &Buffer{}
	for c := uint64(0); c < 10; c++ {
		b.Emit(Event{Cycle: c * 100, Sub: SubKernel, Kind: KindTick})
	}
	b.Emit(Event{Cycle: 250, Sub: SubLoader, Kind: KindLoadPhase, Subject: "img",
		Attrs: []Attr{Str("phase", "alloc")}})
	b.Emit(Event{Cycle: 850, Sub: SubLoader, Kind: KindLoadPhase, Subject: "img",
		Attrs: []Attr{Str("phase", "done")}})
	return b
}

func TestCount(t *testing.T) {
	b := sample()
	if got := b.Count(KindTick, "", 0, 1000); got != 10 {
		t.Errorf("Count = %d, want 10", got)
	}
	if got := b.Count(KindTick, "", 200, 500); got != 3 {
		t.Errorf("windowed Count = %d, want 3 (200,300,400)", got)
	}
	if got := b.Count(KindIRQ, "", 0, 1000); got != 0 {
		t.Errorf("absent Count = %d", got)
	}
}

func TestRateKHz(t *testing.T) {
	b := sample()
	// 10 events over 1000 cycles at 1 MHz: 10 / 1ms = 10 kHz.
	if got := b.RateKHz(KindTick, "", 0, 1000, 1_000_000); got != 10 {
		t.Errorf("RateKHz = %v, want 10", got)
	}
	if got := b.RateKHz(KindTick, "", 5, 5, 1_000_000); got != 0 {
		t.Errorf("empty window rate = %v", got)
	}
}

func TestFirstLast(t *testing.T) {
	b := sample()
	if e, ok := b.First(KindLoadPhase, "img"); !ok || e.Cycle != 250 {
		t.Errorf("First = %+v, %v", e, ok)
	}
	if e, ok := b.Last(KindTick, ""); !ok || e.Cycle != 900 {
		t.Errorf("Last = %+v, %v", e, ok)
	}
	if _, ok := b.First(KindIRQ, ""); ok {
		t.Error("First of absent event")
	}
}

func TestGaps(t *testing.T) {
	b := &Buffer{}
	for _, c := range []uint64{0, 100, 350, 400} {
		b.Emit(Event{Cycle: c, Sub: SubHarness, Kind: KindActivation, Subject: "x"})
	}
	gaps := b.Gaps(KindActivation, "x")
	if len(gaps) != 3 || gaps[0] != 50 || gaps[2] != 250 {
		t.Errorf("Gaps = %v", gaps)
	}
	if b.MaxGap(KindActivation, "x") != 250 {
		t.Errorf("MaxGap = %d", b.MaxGap(KindActivation, "x"))
	}
	if b.MaxGap(KindIRQ, "") != 0 {
		t.Error("MaxGap of absent event")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Cycle: 7, Sub: SubKernel, Kind: KindTaskExit, Subject: "t0",
		Attrs: []Attr{Str("cause", "halt"), Num("id", 3), Hex("pc", 0x120)}}
	s := e.String()
	for _, want := range []string{"kernel", "task-exit", "t0", "cause=halt", "id=3", "pc=0x120"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if n, ok := e.NumAttr("id"); !ok || n != 3 {
		t.Errorf("NumAttr(id) = %d, %v", n, ok)
	}
	if _, ok := e.NumAttr("cause"); ok {
		t.Error("NumAttr of a string attr succeeded")
	}
}

func TestEventsCopy(t *testing.T) {
	b := &Buffer{}
	b.Emit(Event{Cycle: 1, Kind: KindCustom, Subject: "a"})
	ev := b.Events()
	ev[0].Subject = "mutated"
	if e, _ := b.First(KindCustom, "a"); e.Subject != "a" {
		t.Error("Events returned aliasing slice")
	}
}

func TestMultiSink(t *testing.T) {
	a, b := &Buffer{}, &Buffer{}
	m := Multi(a, b)
	m.Emit(Event{Cycle: 9, Kind: KindCustom})
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("fan-out lens = %d, %d", a.Len(), b.Len())
	}
}

func TestParseRoundTrips(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	for s := Subsystem(0); s < numSubsystems; s++ {
		got, err := ParseSubsystem(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSubsystem(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted junk")
	}
	if _, err := ParseSubsystem("nope"); err == nil {
		t.Error("ParseSubsystem accepted junk")
	}
}

func TestChromeRoundTrip(t *testing.T) {
	events := []Event{
		{Cycle: 10, Sub: SubKernel, Kind: KindTaskSwitch, Subject: "t0",
			Attrs: []Attr{Num("id", 1)}},
		{Cycle: 1 << 62, Sub: SubEAMPU, Kind: KindViolation, Subject: "t1",
			Attrs: []Attr{Str("kind", "write"), Hex("addr", 0xdeadbeef), Num("pc", 0x42)}},
		{Cycle: 30, Sub: SubLoader, Kind: KindLoadPhase, Subject: "img"},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, events)
	}
}

func TestChromeRejectsJunk(t *testing.T) {
	if _, err := ReadChromeTrace(strings.NewReader("not json")); err == nil {
		t.Error("junk accepted")
	}
	bad := `{"traceEvents":[{"name":"nope","ph":"i","ts":1,"pid":1,"tid":1,"s":"t","args":{"sub":"kernel"}}]}`
	if _, err := ReadChromeTrace(strings.NewReader(bad)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tytan_restarts_total", "Supervisor restarts.")
	c.Add(3)
	r.Gauge("tytan_tasks", "Live tasks.", func() uint64 { return 5 })
	h := r.Histogram("tytan_irq_latency_cycles", "IRQ dispatch latency.", 10, 100)
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	scrape, err := ScrapePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("scrape failed: %v\n%s", err, text)
	}
	samples := scrape.Samples
	want := map[string]float64{
		"tytan_restarts_total":                       3,
		"tytan_tasks":                                5,
		`tytan_irq_latency_cycles_bucket{le="10"}`:   1,
		`tytan_irq_latency_cycles_bucket{le="100"}`:  2,
		`tytan_irq_latency_cycles_bucket{le="+Inf"}`: 3,
		"tytan_irq_latency_cycles_sum":               5055,
		"tytan_irq_latency_cycles_count":             3,
	}
	for k, v := range want {
		if samples[k] != v {
			t.Errorf("%s = %v, want %v", k, samples[k], v)
		}
	}
	if h.Count() != 3 || h.Sum() != 5055 {
		t.Errorf("hist count/sum = %d/%d", h.Count(), h.Sum())
	}
}

func TestScrapePrometheusRejects(t *testing.T) {
	for _, bad := range []string{
		"orphan 1",                       // sample without TYPE header
		"# TYPE x counter\nx notanumber", // bad value
		"# TYPE x counter\nx 1\nx 2",     // duplicate
		"# TYPE x counter\nnovaluehere",  // no value separator
	} {
		if _, err := ScrapePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestDuplicateMetricPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate registration")
		}
	}()
	r.Counter("dup", "")
}

// keep makes the allocation tests' strings escape, as they do when an
// emitted event carries them.
var keep string

// TestHexAndSessionKey pins Hex and SessionKey to the fmt forms they
// replace ("%#x" and "%s#%d"), and to one allocation each: the string.
func TestHexAndSessionKey(t *testing.T) {
	for _, n := range []uint64{0, 1, 0xdeadbeef, math.MaxUint64} {
		if got, want := Hex("k", n).Str, fmt.Sprintf("%#x", n); got != want {
			t.Errorf("Hex(%d) = %q, want %q", n, got, want)
		}
		for _, device := range []string{"", "dev-0042", strings.Repeat("d", 100)} {
			if got, want := SessionKey(device, n), fmt.Sprintf("%s#%d", device, n); got != want {
				t.Errorf("SessionKey(%q, %d) = %q, want %q", device, n, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { keep = Hex("k", 0xdeadbeef).Str }); n != 1 {
		t.Errorf("Hex allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { keep = SessionKey("dev-0042", 12345) }); n != 1 {
		t.Errorf("SessionKey allocates %v times, want 1", n)
	}
}
