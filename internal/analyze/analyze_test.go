package analyze

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/trace"
)

// ev is shorthand for building test events.
func ev(cycle uint64, sub trace.Subsystem, kind trace.Kind, subject string, attrs ...trace.Attr) trace.Event {
	return trace.Event{Cycle: cycle, Sub: sub, Kind: kind, Subject: subject, Attrs: attrs}
}

func spansOf(a *Analysis, class string) []Span {
	var out []Span
	for _, s := range a.Spans {
		if s.Class == class {
			out = append(out, s)
		}
	}
	return out
}

func TestAnalyzeIRQSpans(t *testing.T) {
	a := Analyze([]trace.Event{
		ev(1000, trace.SubKernel, trace.KindIRQ, "", trace.Num("line", 3), trace.Num("latency", 120)),
		ev(2000, trace.SubKernel, trace.KindTick, "", trace.Num("line", 0), trace.Num("latency", 90)),
	})
	irq := spansOf(a, ClassIRQ)
	if len(irq) != 1 || irq[0].Start != 880 || irq[0].End != 1000 {
		t.Errorf("irq spans = %+v", irq)
	}
	tick := spansOf(a, ClassTick)
	if len(tick) != 1 || tick[0].Duration() != 90 {
		t.Errorf("tick spans = %+v", tick)
	}
}

func TestAnalyzeTaskWindows(t *testing.T) {
	a := Analyze([]trace.Event{
		ev(100, trace.SubKernel, trace.KindTaskSwitch, "a"),
		ev(400, trace.SubKernel, trace.KindTaskSwitch, "b"),
		ev(900, trace.SubKernel, trace.KindTaskSwitch, "a"),
		ev(1000, trace.SubKernel, trace.KindCustom, ""), // advances LastCycle
	})
	tasks := spansOf(a, ClassTask)
	if len(tasks) != 3 {
		t.Fatalf("task spans = %+v", tasks)
	}
	if tasks[0].Subject != "a" || tasks[0].Duration() != 300 {
		t.Errorf("first window = %+v", tasks[0])
	}
	// The final window is cut at the last cycle, closed (not dangling).
	last := tasks[2]
	if last.Subject != "a" || last.End != 1000 || last.Unclosed {
		t.Errorf("last window = %+v", last)
	}
}

// TestAnalyzeConcatenatedStreams: a merged stream concatenates lanes
// whose cycle counters restart. Each lane's task windows come out as if
// it were analyzed alone: the last window of one lane closes where that
// lane ended, never at the next lane's first dispatch.
func TestAnalyzeConcatenatedStreams(t *testing.T) {
	laneA := []trace.Event{
		ev(100, trace.SubKernel, trace.KindTaskSwitch, "a"),
		ev(400, trace.SubKernel, trace.KindTaskSwitch, "b"),
		ev(1000, trace.SubKernel, trace.KindCustom, ""),
	}
	laneB := []trace.Event{
		ev(20, trace.SubKernel, trace.KindCustom, ""),
		ev(50, trace.SubKernel, trace.KindTaskSwitch, "c"),
		ev(300, trace.SubKernel, trace.KindTaskSwitch, "d"),
		ev(700, trace.SubKernel, trace.KindCustom, ""),
	}
	want := append(spansOf(Analyze(laneA), ClassTask), spansOf(Analyze(laneB), ClassTask)...)
	got := spansOf(Analyze(append(append([]trace.Event(nil), laneA...), laneB...)), ClassTask)
	sortSpans := func(s []Span) {
		sort.Slice(s, func(i, j int) bool { return s[i].Subject < s[j].Subject })
	}
	sortSpans(want)
	sortSpans(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged task windows = %+v, want %+v", got, want)
	}
}

func TestAnalyzeLoadSpans(t *testing.T) {
	a := Analyze([]trace.Event{
		ev(10, trace.SubLoader, trace.KindLoadPhase, "img", trace.Str("phase", "alloc")),
		ev(50, trace.SubLoader, trace.KindLoadPhase, "img", trace.Str("phase", "stream")),
		ev(300, trace.SubLoader, trace.KindLoadPhase, "img", trace.Str("phase", "done"), trace.Num("total", 290)),
	})
	load := spansOf(a, ClassLoad)
	if len(load) != 1 || load[0].Start != 10 || load[0].End != 300 || load[0].Unclosed {
		t.Errorf("load spans = %+v", load)
	}
	if ph := spansOf(a, "load/alloc"); len(ph) != 1 || ph[0].Duration() != 40 {
		t.Errorf("alloc phase = %+v", ph)
	}
	if ph := spansOf(a, "load/stream"); len(ph) != 1 || ph[0].Duration() != 250 {
		t.Errorf("stream phase = %+v", ph)
	}
}

func TestAnalyzeTruncatedLoadUnclosed(t *testing.T) {
	a := Analyze([]trace.Event{
		ev(10, trace.SubLoader, trace.KindLoadPhase, "img", trace.Str("phase", "alloc")),
		ev(500, trace.SubKernel, trace.KindCustom, ""),
	})
	load := spansOf(a, ClassLoad)
	if len(load) != 1 || !load[0].Unclosed || load[0].End != 500 {
		t.Errorf("unclosed load = %+v", load)
	}
	if got := len(a.Unclosed()); got != 2 { // whole-load + in-flight phase
		t.Errorf("unclosed count = %d, want 2 (%+v)", got, a.Unclosed())
	}
}

func TestAnalyzeAttestPairs(t *testing.T) {
	a := Analyze([]trace.Event{
		ev(100, trace.SubRemote, trace.KindAttest, "prov", trace.Str("phase", "request")),
		ev(700, trace.SubRemote, trace.KindAttest, "prov", trace.Str("phase", "reply"), trace.Num("rtt", 600)),
		// Reply without a matched request: synthesized from rtt.
		ev(2000, trace.SubRemote, trace.KindAttest, "prov", trace.Str("phase", "reply"), trace.Num("rtt", 450)),
		// Component-side quote event: not a round-trip.
		ev(2100, trace.SubAttest, trace.KindAttest, "task"),
	})
	att := spansOf(a, ClassAttest)
	if len(att) != 2 {
		t.Fatalf("attest spans = %+v", att)
	}
	if att[0].Duration() != 600 || att[1].Duration() != 450 {
		t.Errorf("attest durations = %d, %d", att[0].Duration(), att[1].Duration())
	}
}

func TestAnalyzeSessionSpans(t *testing.T) {
	a := Analyze([]trace.Event{
		// Session 0: correlated — the plane ruled on the same key.
		ev(100, trace.SubRemote, trace.KindSession, "dev-0001",
			trace.Num("session", 0), trace.Str("phase", "hello")),
		ev(400, trace.SubRemote, trace.KindSession, "dev-0001",
			trace.Num("session", 0), trace.Str("phase", "verdict"), trace.Str("result", "pass"), trace.Num("e2e", 300)),
		// Session 1: device-side only — no plane evidence, stays ClassSession.
		ev(900, trace.SubRemote, trace.KindSession, "dev-0001",
			trace.Num("session", 1), trace.Str("phase", "hello")),
		ev(1000, trace.SubRemote, trace.KindSession, "dev-0001",
			trace.Num("session", 1), trace.Str("phase", "refused")),
		// Another device's session 0 must not pair with dev-0001's.
		ev(200, trace.SubRemote, trace.KindSession, "dev-0002",
			trace.Num("session", 0), trace.Str("phase", "hello")),
		// The plane's decision event for dev-0001 session 0 (plane
		// ordinal domain; position in the stream does not matter).
		ev(1, trace.SubFleet, trace.KindFleet, "dev-0001",
			trace.Str("what", "verdict"), trace.Num("session", 0), trace.Str("result", "pass")),
	})

	e2e := spansOf(a, ClassFleetE2E)
	if len(e2e) != 1 {
		t.Fatalf("fleet_e2e spans = %+v", e2e)
	}
	if e2e[0].Subject != "dev-0001#0" || e2e[0].Duration() != 300 || e2e[0].Unclosed {
		t.Errorf("fleet_e2e span = %+v", e2e[0])
	}

	plain := spansOf(a, ClassSession)
	if len(plain) != 2 {
		t.Fatalf("session spans = %+v", plain)
	}
	// Sorted by start: dev-0002's unclosed hello (200) then dev-0001#1 (900).
	if plain[0].Subject != "dev-0002#0" || !plain[0].Unclosed {
		t.Errorf("unmatched hello span = %+v", plain[0])
	}
	if plain[1].Subject != "dev-0001#1" || plain[1].Duration() != 100 || plain[1].Unclosed {
		t.Errorf("uncorrelated session span = %+v", plain[1])
	}
}

func TestSLOFleetE2E(t *testing.T) {
	spec, err := ParseSpecString("fleet_e2e == 1\nfleet_e2e max <= 300c")
	if err != nil {
		t.Fatal(err)
	}
	v := spec.Evaluate(Analyze([]trace.Event{
		ev(100, trace.SubRemote, trace.KindSession, "d",
			trace.Num("session", 7), trace.Str("phase", "hello")),
		ev(400, trace.SubRemote, trace.KindSession, "d",
			trace.Num("session", 7), trace.Str("phase", "verdict"), trace.Str("result", "pass")),
		ev(8, trace.SubFleet, trace.KindFleet, "d",
			trace.Str("what", "verdict"), trace.Num("session", 7)),
	}))
	if !v.Pass {
		t.Fatalf("verdict = %+v", v)
	}
	for _, r := range v.Results {
		if r.Samples != 1 {
			t.Errorf("rule %q samples = %d, want 1", r.Text, r.Samples)
		}
	}
}

func TestAnalyzeIPCSpans(t *testing.T) {
	a := Analyze([]trace.Event{
		ev(100, trace.SubIPC, trace.KindIPC, "a",
			trace.Str("dir", "send"), trace.Num("status", 0), trace.Num("len", 12), trace.Str("to", "b")),
		ev(400, trace.SubKernel, trace.KindTaskSwitch, "b"),
		// Failed send opens nothing.
		ev(500, trace.SubIPC, trace.KindIPC, "a",
			trace.Str("dir", "send"), trace.Num("status", 2), trace.Num("len", 12), trace.Str("to", "b")),
	})
	ipc := spansOf(a, ClassIPC)
	if len(ipc) != 1 || ipc[0].Duration() != 300 || ipc[0].Subject != "b" {
		t.Errorf("ipc spans = %+v", ipc)
	}
}

func TestAnalyzeCounters(t *testing.T) {
	a := Analyze([]trace.Event{
		ev(10, trace.SubKernel, trace.KindDeadlineMiss, "t"),
		ev(20, trace.SubEAMPU, trace.KindViolation, "t"),
		ev(30, trace.SubAnalyze, trace.KindSLOViolation, "irq_latency"),
	})
	if a.DeadlineMisses != 1 || a.Violations != 1 || a.SLOViolations != 1 {
		t.Errorf("counters = %d %d %d", a.DeadlineMisses, a.Violations, a.SLOViolations)
	}
}

func TestPercentiles(t *testing.T) {
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %d", got)
	}
	one := []uint64{42}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := Percentile(one, q); got != 42 {
			t.Errorf("p%.0f of singleton = %d", q*100, got)
		}
	}
	hundred := make([]uint64, 100)
	for i := range hundred {
		hundred[i] = uint64(i + 1)
	}
	if got := Percentile(hundred, 0.50); got != 50 {
		t.Errorf("p50 = %d", got)
	}
	if got := Percentile(hundred, 0.99); got != 99 {
		t.Errorf("p99 = %d", got)
	}
	st := Summarize(hundred)
	if st.Min != 1 || st.Max != 100 || st.Count != 100 || st.Sum != 5050 {
		t.Errorf("stats = %+v", st)
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpecString(`
# comment
irq_latency p99 <= 2000c
deadline_miss == 0
attest_rtt max <= 600000
span:load/stream mean < 1000c  # trailing comment
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Rules) != 4 {
		t.Fatalf("rules = %+v", spec.Rules)
	}
	if r := spec.Rules[1]; r.Agg != AggCount || r.Bound != 0 || r.Op != "==" {
		t.Errorf("deadline rule = %+v", r)
	}
	if r := spec.Rules[3]; r.Metric != "span:load/stream" || r.Agg != AggMean {
		t.Errorf("span rule = %+v", r)
	}

	for _, bad := range []string{
		"irq_latency p99 <= ",
		"irq_latency p42 <= 100",
		"irq_latency p99 ~= 100",
		"unknown_metric max <= 100",
		"irq_latency p99 <= notanumber",
		"too many fields here now 5",
	} {
		if _, err := ParseSpecString(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestEvaluate(t *testing.T) {
	a := Analyze([]trace.Event{
		ev(1000, trace.SubKernel, trace.KindIRQ, "", trace.Num("latency", 100)),
		ev(2000, trace.SubKernel, trace.KindIRQ, "", trace.Num("latency", 300)),
		ev(3000, trace.SubKernel, trace.KindDeadlineMiss, "t"),
	})
	spec, err := ParseSpecString(`
irq_latency max <= 250c
irq_latency p50 <= 150c
deadline_miss == 0
attest_rtt max <= 10c
`)
	if err != nil {
		t.Fatal(err)
	}
	v := spec.Evaluate(a)
	if v.Pass {
		t.Error("verdict passed; want fail")
	}
	wantPass := []bool{false, true, false, true} // attest: vacuous
	for i, res := range v.Results {
		if res.Pass != wantPass[i] {
			t.Errorf("rule %d (%s): pass=%v measured=%d", i, res.Text, res.Pass, res.Measured)
		}
	}
	if v.Results[0].Measured != 300 {
		t.Errorf("max measured = %d", v.Results[0].Measured)
	}
	if len(v.Failed()) != 2 {
		t.Errorf("failed = %+v", v.Failed())
	}
}

func TestMonitorOnline(t *testing.T) {
	spec, err := ParseSpecString(`
irq_latency max <= 200c
deadline_miss == 0
irq_latency p99 <= 100c
`)
	if err != nil {
		t.Fatal(err)
	}
	var out trace.Buffer
	m := NewMonitor(spec, nil)
	m.SetOutput(&out)

	m.Emit(ev(1000, trace.SubKernel, trace.KindIRQ, "", trace.Num("latency", 150)))
	if m.Violations() != 0 {
		t.Errorf("violations after ok sample = %d", m.Violations())
	}
	m.Emit(ev(2000, trace.SubKernel, trace.KindIRQ, "", trace.Num("latency", 500)))
	if m.Violations() != 1 {
		t.Errorf("violations after bad sample = %d", m.Violations())
	}
	// The same rule fires only once.
	m.Emit(ev(3000, trace.SubKernel, trace.KindIRQ, "", trace.Num("latency", 600)))
	m.Emit(ev(4000, trace.SubKernel, trace.KindDeadlineMiss, "t"))
	if m.Violations() != 2 {
		t.Errorf("violations = %d, want 2", m.Violations())
	}
	if got := m.FiredRules(); len(got) != 2 || !strings.Contains(got[0], "max") {
		t.Errorf("fired = %v", got)
	}

	evs := out.Events()
	if len(evs) != 2 {
		t.Fatalf("emitted events = %+v", evs)
	}
	for _, e := range evs {
		if e.Kind != trace.KindSLOViolation || e.Sub != trace.SubAnalyze {
			t.Errorf("violation event = %+v", e)
		}
	}
	if evs[0].Subject != "irq_latency" {
		t.Errorf("subject = %q", evs[0].Subject)
	}
	if _, ok := evs[0].NumAttr("measured"); !ok {
		t.Error("violation lacks measured attr")
	}

	// The full verdict also catches the deferred percentile rule.
	v := m.Verdict()
	if v.Pass {
		t.Error("full verdict passed")
	}
	if len(v.Failed()) != 3 {
		t.Errorf("full verdict failed = %+v", v.Failed())
	}
}

// TestSample: the one event-to-duration rule. Each self-timed class
// reads its own attribute; an attest request, a component-side quote
// and a failed load carry no duration and are no samples.
func TestSample(t *testing.T) {
	for _, tc := range []struct {
		e      trace.Event
		class  string
		cycles uint64
		ok     bool
	}{
		{ev(10, trace.SubKernel, trace.KindIRQ, "", trace.Num("latency", 7)), ClassIRQ, 7, true},
		{ev(10, trace.SubKernel, trace.KindTick, "", trace.Num("latency", 9)), ClassTick, 9, true},
		{ev(10, trace.SubRemote, trace.KindAttest, "oem", trace.Str("phase", "request")), ClassAttest, 0, false},
		{ev(10, trace.SubRemote, trace.KindAttest, "oem", trace.Str("phase", "reply"), trace.Num("rtt", 8)), ClassAttest, 8, true},
		{ev(10, trace.SubAttest, trace.KindAttest, "oem", trace.Num("rtt", 8)), "", 0, false},
		{ev(10, trace.SubLoader, trace.KindLoadPhase, "img", trace.Str("phase", "done"),
			trace.Num("total", 5), trace.Num("latency", 6)), ClassLoad, 6, true},
		{ev(10, trace.SubLoader, trace.KindLoadPhase, "img", trace.Str("phase", "failed")), "", 0, false},
		{ev(10, trace.SubLoader, trace.KindLoadPhase, "img", trace.Str("phase", "alloc")), "", 0, false},
		{ev(10, trace.SubKernel, trace.KindTaskSwitch, "t0"), "", 0, false},
	} {
		class, cycles, ok := Sample(tc.e)
		if class != tc.class || cycles != tc.cycles || ok != tc.ok {
			t.Errorf("Sample(%v) = %q, %d, %v; want %q, %d, %v", tc.e, class, cycles, ok, tc.class, tc.cycles, tc.ok)
		}
	}
}

// TestMonitorLoadTotalElapsed: load_total is the elapsed window,
// request to schedulable, online as offline. The latency scenario's t2
// load does 1,311,002 cycles of work over 1,386,448 elapsed; a bound
// between the two must fire online on the done event, not only in the
// offline verdict.
func TestMonitorLoadTotalElapsed(t *testing.T) {
	spec, err := ParseSpecString("load_total max <= 1350000c\n")
	if err != nil {
		t.Fatal(err)
	}
	const c = 5_000
	m := NewMonitor(spec, nil)
	m.Emit(ev(c, trace.SubLoader, trace.KindLoadPhase, "t2", trace.Str("phase", "alloc")))
	m.Emit(ev(c+1_386_448, trace.SubLoader, trace.KindLoadPhase, "t2", trace.Str("phase", "done"),
		trace.Num("total", 1_311_002), trace.Num("latency", 1_386_448)))
	if got := m.FiredRules(); len(got) != 1 {
		t.Errorf("fired online = %v, want the load_total rule", got)
	}
	v := m.Verdict()
	if v.Pass || v.Results[0].Measured != 1_386_448 {
		t.Errorf("offline verdict = %+v, want a failure measuring 1386448", v.Results)
	}
}

func TestMonitorIgnoresOwnViolations(t *testing.T) {
	spec, err := ParseSpecString("eampu_violation == 0")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(spec, nil)
	m.Emit(ev(10, trace.SubAnalyze, trace.KindSLOViolation, "x"))
	if m.Violations() != 0 || len(m.Verdict().Results) != 1 {
		t.Error("monitor reacted to an SLO-violation event")
	}
	if m.Verdict().Results[0].Measured != 0 {
		t.Error("violation event leaked into the analyzed stream")
	}
}

func TestReportText(t *testing.T) {
	a := Analyze([]trace.Event{
		ev(1000, trace.SubKernel, trace.KindIRQ, "", trace.Num("latency", 100)),
		ev(100, trace.SubKernel, trace.KindTaskSwitch, "a"),
	})
	spec, _ := ParseSpecString("irq_latency max <= 50c")
	rep := BuildReport(a, spec.Evaluate(a))
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"irq", "task", "SLO: FAIL", "[FAIL]"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}

	empty := BuildReport(Analyze(nil), nil)
	buf.Reset()
	if err := empty.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no spans") {
		t.Errorf("empty report = %q", buf.String())
	}
}

func TestReportJSONDeterministic(t *testing.T) {
	events := []trace.Event{
		ev(100, trace.SubKernel, trace.KindTaskSwitch, "a"),
		ev(1000, trace.SubKernel, trace.KindIRQ, "", trace.Num("latency", 100)),
		ev(2000, trace.SubKernel, trace.KindTaskSwitch, "b"),
		ev(3000, trace.SubLoader, trace.KindLoadPhase, "img", trace.Str("phase", "alloc")),
	}
	render := func() string {
		var buf bytes.Buffer
		if err := BuildReport(Analyze(events), nil).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Error("JSON report not deterministic")
	}
}

func TestWriteFolded(t *testing.T) {
	a := Analyze([]trace.Event{
		ev(0, trace.SubKernel, trace.KindTaskSwitch, "a"),
		ev(500, trace.SubKernel, trace.KindIRQ, "", trace.Num("latency", 100)),
		ev(1000, trace.SubKernel, trace.KindTaskSwitch, "b"),
		ev(2000, trace.SubKernel, trace.KindTaskSwitch, "a"),
		ev(3000, trace.SubKernel, trace.KindCustom, ""),
	})
	var buf bytes.Buffer
	if err := WriteFolded(&buf, a); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Task self-time lines plus the IRQ span nested under task a.
	for _, want := range []string{"a 2000\n", "b 1000\n", "a;irq 100\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("folded output lacks %q:\n%s", want, out)
		}
	}
	// Deterministic: sorted lines.
	if buf.String() != out {
		t.Error("folded output changed between reads")
	}
}

func TestAnalyzeBurstsAndCrossCheck(t *testing.T) {
	a := Analyze([]trace.Event{
		ev(100, trace.SubKernel, trace.KindTaskBurst, "t0", trace.Num("cycles", 40), trace.Str("boundary", "svc")),
		ev(300, trace.SubKernel, trace.KindTaskBurst, "t0", trace.Num("cycles", 90), trace.Str("boundary", "svc")),
		ev(500, trace.SubKernel, trace.KindTaskBurst, "t1", trace.Num("cycles", 25), trace.Str("boundary", "hlt")),
	})
	st := a.Bursts["t0"]
	if st.Count != 2 || st.Max != 90 || st.Sum != 130 {
		t.Errorf("bursts[t0] = %+v, want {Count:2 Max:90 Sum:130}", st)
	}

	// t0's worst burst (90) breaks an 80-cycle certificate; t1 is within
	// its bound; an uncertified subject is never reported.
	viol := a.CrossCheckBounds(map[string]uint64{"t0": 80, "t1": 25})
	if len(viol) != 1 || viol[0].Subject != "t0" || viol[0].Measured != 90 || viol[0].Bound != 80 {
		t.Errorf("violations = %+v, want one for t0 (90 > 80)", viol)
	}
	if viol := a.CrossCheckBounds(map[string]uint64{"t0": 90}); len(viol) != 0 {
		t.Errorf("bound met exactly but reported: %+v", viol)
	}
}
