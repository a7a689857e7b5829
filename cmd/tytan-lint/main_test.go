package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/contract"
)

// fixture returns the path of a checked-in image that sverify's
// seeded generator built: testdata/gen-<class>-<seed>.telf.
func fixture(name string) string { return filepath.Join("testdata", name+".telf") }

func TestExitCodes(t *testing.T) {
	clean := fixture("gen-clean-1")
	broken := fixture("gen-invalid-opcode-1")

	var out bytes.Buffer
	if code, err := run(config{inputs: []string{clean}}, &out); code != 0 || err != nil {
		t.Fatalf("clean image: code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "clean:") {
		t.Fatalf("missing clean verdict:\n%s", out.String())
	}

	out.Reset()
	if code, err := run(config{inputs: []string{clean, broken}}, &out); code != 1 || err != nil {
		t.Fatalf("broken image: code=%d err=%v", code, err)
	}
	if !strings.Contains(out.String(), "REJECTED") {
		t.Fatalf("missing rejection verdict:\n%s", out.String())
	}

	if code, err := run(config{inputs: []string{filepath.Join(t.TempDir(), "missing.telf")}}, &out); code != 2 || err == nil {
		t.Fatalf("missing input: code=%d err=%v", code, err)
	}
}

func TestAssemblySourceInput(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "warn.s")
	// An indirect jump: warning, so clean by default and dirty under
	// -strict.
	err := os.WriteFile(src, []byte(`
.task "warn"
.stack 64
.text
	ldi r1, 0
	jr r1
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code, err := run(config{inputs: []string{src}}, &out); code != 0 || err != nil {
		t.Fatalf("warning-only source: code=%d err=%v\n%s", code, err, out.String())
	}
	if code, err := run(config{strict: true, inputs: []string{src}}, &out); code != 1 || err != nil {
		t.Fatalf("-strict on warnings: code=%d err=%v", code, err)
	}
}

// TestJSONDeterministic: runs over the same inputs are byte-identical
// (the acceptance bar for the report pipeline).
func TestJSONDeterministic(t *testing.T) {
	inputs := []string{
		fixture("gen-clean-2"),
		fixture("gen-wild-store-2"),
		fixture("gen-bad-syscall-2"),
	}
	contract.Check(t, contract.Row{Name: "lint-json", Produce: func(t *testing.T, _ contract.Point) []byte {
		var out bytes.Buffer
		if code, err := run(config{jsonPath: "-", inputs: inputs}, &out); code != 1 || err != nil {
			t.Fatalf("code=%d err=%v", code, err)
		}
		if !strings.Contains(out.String(), `"severity"`) {
			t.Fatalf("JSON output missing findings:\n%s", out.String())
		}
		return out.Bytes()
	}})
}

// TestExamplesCorpusClean pins the checked-in example tasks to a clean
// verdict — they are the images every demo loads.
func TestExamplesCorpusClean(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "examples", "tasks", "*.s"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("examples corpus: %v (%d files)", err, len(matches))
	}
	var out bytes.Buffer
	if code, err := run(config{inputs: matches}, &out); code != 0 || err != nil {
		t.Fatalf("examples not clean: code=%d err=%v\n%s", code, err, out.String())
	}
}

// TestBoundsCheck pins the -bounds mode: a certified image passes, an
// image with an uncertified bound fails even without error findings,
// and the rendered text names the bounds. Its "bounds" row requires
// every shipped task source to carry certified bounds, and the -bounds
// JSON over that corpus and the generator images to be byte-identical
// across repeats.
func TestBoundsCheck(t *testing.T) {
	certified := fixture("gen-counted-loop-0")
	uncertified := fixture("gen-indirect-call-opaque-0")

	var out bytes.Buffer
	if code, err := run(config{bounds: true, inputs: []string{certified}}, &out); code != 0 || err != nil {
		t.Fatalf("certified image under -bounds: code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "bounds: stack ") {
		t.Fatalf("text report missing bounds line:\n%s", out.String())
	}

	out.Reset()
	if code, err := run(config{bounds: true, inputs: []string{uncertified}}, &out); code != 1 || err != nil {
		t.Fatalf("uncertified image under -bounds: code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "unbounded") {
		t.Fatalf("text report missing unbounded verdict:\n%s", out.String())
	}
	// Without -bounds the same image passes (its findings are warnings).
	if code, err := run(config{inputs: []string{uncertified}}, &out); code != 0 || err != nil {
		t.Fatalf("uncertified image without -bounds: code=%d err=%v", code, err)
	}

	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "tasks", "*.s"))
	if err != nil || len(examples) == 0 {
		t.Fatalf("examples corpus: %v (%d files)", err, len(examples))
	}
	contract.Check(t, contract.Row{Name: "bounds", Produce: func(t *testing.T, _ contract.Point) []byte {
		var json bytes.Buffer
		if code, err := run(config{bounds: true, jsonPath: "-", inputs: examples}, &json); code != 0 || err != nil {
			t.Fatalf("examples under -bounds: code=%d err=%v\n%s", code, err, json.String())
		}
		if code, err := run(config{bounds: true, jsonPath: "-", inputs: []string{certified, uncertified}}, &json); code != 1 || err != nil {
			t.Fatalf("generator images under -bounds: code=%d err=%v", code, err)
		}
		if !strings.Contains(json.String(), `"bounds"`) {
			t.Fatal("JSON report missing the bounds object")
		}
		return json.Bytes()
	}})
}
