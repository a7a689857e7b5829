package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/contract"
	"repro/internal/faultinject"
	"repro/internal/trace"
)

func writeImage(t *testing.T, dir string) string {
	t.Helper()
	im, err := asm.Assemble(`
.task "simtest"
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
	blob, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "simtest.telf")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDescribe(t *testing.T) {
	if err := run(config{describe: true, ms: 1, prio: 3}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSecure(t *testing.T) {
	path := writeImage(t, t.TempDir())
	if err := run(config{ms: 5, prio: 3, itrace: 8, files: []string{path}}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunBaselineNormal(t *testing.T) {
	path := writeImage(t, t.TempDir())
	if err := run(config{ms: 5, normal: true, baseline: true, prio: 3, files: []string{path}}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFaults(t *testing.T) {
	path := writeImage(t, t.TempDir())
	if err := run(config{ms: 5, prio: 3, faults: "seed=7,period=50000", files: []string{path}}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(config{ms: 1, prio: 3}, io.Discard); err == nil {
		t.Error("no images accepted")
	}
	if err := run(config{ms: 1, prio: 3, files: []string{"/nonexistent.telf"}}, io.Discard); err == nil {
		t.Error("missing image accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.telf")
	os.WriteFile(bad, []byte("junk"), 0o644)
	if err := run(config{ms: 1, prio: 3, files: []string{bad}}, io.Discard); err == nil {
		t.Error("junk image accepted")
	}
	path := writeImage(t, dir)
	if err := run(config{ms: 1, baseline: true, prio: 3, faults: "seed=1", files: []string{path}}, io.Discard); err == nil {
		t.Error("-faults accepted with -baseline")
	}
}

// TestTraceCheck is the observability export gate: a short
// fault-injected run with every exporter on must produce a Chrome trace
// that parses and a Prometheus text exposition that scrapes. Two rows
// pin the exports:
//   - "sim-exports": the trace, the profile and stdout are byte-identical
//     on both engines and across repeats;
//   - "sim-prometheus": the metrics are byte-identical across repeats
//     only, since they carry the engine's own counters (superblock
//     compiles, decode misses).
func TestTraceCheck(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		ms: 5, prio: 3,
		faults:      "seed=7,period=50000",
		tracePath:   filepath.Join(dir, "trace.json"),
		metricsPath: filepath.Join(dir, "metrics.prom"),
		profilePath: filepath.Join(dir, "profile.txt"),
		files:       []string{writeImage(t, dir)},
	}
	export := func(t *testing.T) (stdout, chrome, profile, metrics []byte) {
		var buf bytes.Buffer
		if err := run(cfg, &buf); err != nil {
			t.Fatal(err)
		}
		read := func(path string) []byte {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return blob
		}
		return buf.Bytes(), read(cfg.tracePath), read(cfg.profilePath), read(cfg.metricsPath)
	}
	contract.Check(t,
		contract.Row{Name: "sim-exports", Axes: []contract.Axis{contract.Engine}, Produce: func(t *testing.T, _ contract.Point) []byte {
			stdout, chrome, profile, _ := export(t)
			events, err := trace.ReadTraceEvents(bytes.NewReader(chrome))
			if err != nil {
				t.Fatalf("Chrome trace does not parse: %v", err)
			}
			if len(events) == 0 {
				t.Fatal("Chrome trace is empty")
			}
			return append(append(stdout, chrome...), profile...)
		}},
		contract.Row{Name: "sim-prometheus", Produce: func(t *testing.T, _ contract.Point) []byte {
			_, _, _, metrics := export(t)
			scrape, err := trace.ScrapePrometheus(bytes.NewReader(metrics))
			if err != nil {
				t.Fatalf("Prometheus text does not scrape: %v", err)
			}
			samples := scrape.Samples
			if samples["tytan_cycles"] == 0 {
				t.Errorf("tytan_cycles not exported or zero; got %v samples", len(samples))
			}
			if samples["tytan_machine_insn_retired"] == 0 {
				t.Error("tytan_machine_insn_retired not exported or zero")
			}
			return metrics
		}})
}

// TestSLOFlag: -slo monitors the run online and turns a violated spec
// into a non-zero exit, while a satisfied spec passes cleanly.
func TestSLOFlag(t *testing.T) {
	dir := t.TempDir()
	path := writeImage(t, dir)
	writeSpec := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	good := writeSpec("good.slo", "irq_latency max <= 50000c\ndeadline_miss == 0\n")
	if err := run(config{ms: 5, prio: 3, sloPath: good, deadline: 16 * 32_000, files: []string{path}}, io.Discard); err != nil {
		t.Errorf("passing spec failed the run: %v", err)
	}

	strict := writeSpec("strict.slo", "irq_latency max <= 1c\n")
	if err := run(config{ms: 5, prio: 3, sloPath: strict, files: []string{path}}, io.Discard); err == nil {
		t.Error("violated spec did not fail the run")
	}

	bad := writeSpec("bad.slo", "nonsense_metric max <= 5\n")
	if err := run(config{ms: 1, prio: 3, sloPath: bad, files: []string{path}}, io.Discard); err == nil {
		t.Error("unparseable spec accepted")
	}
}

// TestDeadlineFlagDetectsMisses: a task that sleeps through its
// registered deadline windows trips `deadline_miss == 0`.
func TestDeadlineFlagDetectsMisses(t *testing.T) {
	dir := t.TempDir()
	im, err := asm.Assemble(`
.task "sleeper"
.entry main
.stack 128
.text
main:
    li r0, 200000
    svc 2
    jmp main
`)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sleeper.telf")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join(dir, "deadline.slo")
	if err := os.WriteFile(spec, []byte("deadline_miss == 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(config{ms: 5, prio: 3, sloPath: spec, deadline: 32_000, files: []string{path}}, io.Discard); err == nil {
		t.Error("sleeping task missed no deadlines")
	}
	// The same run without a registered deadline has nothing to miss.
	if err := run(config{ms: 5, prio: 3, sloPath: spec, files: []string{path}}, io.Discard); err != nil {
		t.Errorf("unmonitored run failed: %v", err)
	}
}

// TestParseFaultSpec: the -faults flag value is a faultinject spec.
func TestParseFaultSpec(t *testing.T) {
	cfg, err := faultinject.ParseSpec("seed=0x2a,classes=bitflips+irqstorms,period=90000")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 0x2a || cfg.MeanPeriod != 90000 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.Classes != faultinject.BitFlips|faultinject.IRQStorms {
		t.Errorf("classes = %v", cfg.Classes)
	}
	for _, bad := range []string{"seed", "seed=x", "classes=nukes", "bogus=1", "period=x"} {
		if _, err := faultinject.ParseSpec(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
