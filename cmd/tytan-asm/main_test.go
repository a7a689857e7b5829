package main

import (
	"os"
	"path/filepath"
	"testing"
)

const src = `
.task "cli"
.entry main
.stack 128
.text
main:
    ldi32 r1, v
    ld r0, [r1+0]
    hlt
.data
v:
    .word 7
`

func TestAssembleAndDisassemble(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "task.s")
	out := filepath.Join(dir, "task.telf")
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(in, out, false, false); err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("output missing: %v", err)
	}
	if err := run(out, "", true, false); err != nil {
		t.Fatalf("disassemble: %v", err)
	}
	if err := run(out, "", false, true); err != nil {
		t.Fatalf("identity: %v", err)
	}
}

func TestDefaultOutputName(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "task.s")
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(in, "", false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "task.telf")); err != nil {
		t.Fatalf("default output missing: %v", err)
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run(filepath.Join(dir, "missing.s"), "", false, false); err == nil {
		t.Error("missing input accepted")
	}
	bad := filepath.Join(dir, "bad.s")
	os.WriteFile(bad, []byte(".text\nfrob\n"), 0o644)
	if err := run(bad, "", false, false); err == nil {
		t.Error("bad source assembled")
	}
	notTelf := filepath.Join(dir, "x.telf")
	os.WriteFile(notTelf, []byte("garbage"), 0o644)
	if err := run(notTelf, "", true, false); err == nil {
		t.Error("garbage disassembled")
	}
}

func TestShippedTaskSources(t *testing.T) {
	// The example task sources in examples/tasks must keep assembling.
	for _, src := range []string{"blink.s", "sensor.s"} {
		in := filepath.Join("..", "..", "examples", "tasks", src)
		if _, err := os.Stat(in); err != nil {
			t.Fatalf("missing shipped source %s: %v", src, err)
		}
		out := filepath.Join(t.TempDir(), "out.telf")
		if err := run(in, out, false, false); err != nil {
			t.Errorf("%s: %v", src, err)
		}
		if err := run(out, "", true, false); err != nil {
			t.Errorf("%s disassembly: %v", src, err)
		}
	}
}
