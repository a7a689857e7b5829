package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/trusted"
)

// exportScenario runs the seeded fault-injected scenario (the same
// shape `tytan-sim -faults seed=7,period=50000` drives) with a
// registered deadline and exports its Chrome trace to a file.
func exportScenario(t *testing.T, path string) {
	t.Helper()
	p, err := core.NewPlatform(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.EnableSupervision(trusted.SupervisorPolicy{}); err != nil {
		t.Fatal(err)
	}
	obs := p.EnableObservability()

	im, err := asm.Assemble(`
.task "slotest"
.entry main
.stack 128
.bss 28
.text
main:
    ldi r1, 111  ; 'o'
    svc 5
    svc 1
`)
	if err != nil {
		t.Fatal(err)
	}
	tcb, _, err := p.LoadTaskSync(im, core.Secure, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Watch(tcb.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterDeadline(tcb.ID, 16*core.DefaultTickPeriod); err != nil {
		t.Fatal(err)
	}

	fcfg, err := faultinject.ParseSpec("seed=7,period=50000")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.NewInjector(fcfg)
	inj.SetTargets(faultinject.TargetRange{Start: tcb.Placement.Base, Size: tcb.Placement.Size()})

	const slice = 20_000
	end := p.Cycles() + machine.MillisToCycles(5)
	for p.Cycles() < end {
		if err := p.Run(slice); err != nil {
			t.Fatal(err)
		}
		if err := inj.Advance(p.M); err != nil {
			t.Fatal(err)
		}
	}

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(f); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSLOCheck is the SLO gate: the seeded fault-injected scenario,
// exported and analyzed against the checked-in SLO spec, must pass with
// exit code 0, and its text and JSON reports must be byte-identical on
// both engines and across repeats.
func TestSLOCheck(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	jsonPath := filepath.Join(dir, "report.json")
	contract.Check(t, contract.Row{Name: "slo-report", Axes: []contract.Axis{contract.Engine}, Produce: func(t *testing.T, at contract.Point) []byte {
		exportScenario(t, tracePath)
		var out bytes.Buffer
		code, err := run(config{
			sloPath:  filepath.Join("testdata", "ci.slo"),
			jsonPath: jsonPath,
			input:    tracePath,
		}, &out)
		if err != nil || code != 0 {
			t.Fatalf("analyze on %v: exit %d, %v\n%s", at, code, err, out.String())
		}
		report := out.String()
		if !strings.Contains(report, "SLO: PASS") {
			t.Errorf("expected SLO pass, got:\n%s", report)
		}
		for _, class := range []string{"irq", "tick", "task"} {
			if !strings.Contains(report, class) {
				t.Errorf("report lacks %q span class:\n%s", class, report)
			}
		}
		blob, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		return append(out.Bytes(), blob...)
	}})
}

// TestAnalyzeEmptyTrace: an empty trace must report "no spans" and
// exit 0 — degenerate inputs are not errors.
func TestAnalyzeEmptyTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.trace.json")
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := run(config{input: path}, &out)
	if err != nil {
		t.Fatalf("empty trace: %v", err)
	}
	if code != 0 {
		t.Fatalf("empty trace: exit %d", code)
	}
	if !strings.Contains(out.String(), "no spans") {
		t.Errorf("expected 'no spans', got:\n%s", out.String())
	}
}

// TestAnalyzeSLOFailure: a spec the trace cannot satisfy must fail
// with exit code 1 and a FAIL verdict in the report.
func TestAnalyzeSLOFailure(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.trace.json")
	exportScenario(t, tracePath)
	sloPath := filepath.Join(dir, "strict.slo")
	if err := os.WriteFile(sloPath, []byte("irq_latency max <= 1c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := run(config{sloPath: sloPath, input: tracePath}, &out)
	if err == nil {
		t.Error("violated spec did not report an error")
	}
	if code != 1 {
		t.Errorf("violated spec: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("expected FAIL verdict, got:\n%s", out.String())
	}
}

// TestAnalyzeErrors: usage and input problems exit 2.
func TestAnalyzeErrors(t *testing.T) {
	var out bytes.Buffer
	if code, err := run(config{input: "/nonexistent.json"}, &out); err == nil || code != 2 {
		t.Errorf("missing input: code %d err %v", code, err)
	}
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk.json")
	os.WriteFile(junk, []byte("not json"), 0o644)
	if code, err := run(config{input: junk}, &out); err == nil || code != 2 {
		t.Errorf("junk input: code %d err %v", code, err)
	}
	badSpec := filepath.Join(dir, "bad.slo")
	os.WriteFile(badSpec, []byte("nonsense_metric max <= 5\n"), 0o644)
	if code, err := run(config{sloPath: badSpec, input: junk}, &out); err == nil || code != 2 {
		t.Errorf("bad spec: code %d err %v", code, err)
	}
}
