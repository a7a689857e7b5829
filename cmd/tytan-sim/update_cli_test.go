package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/telf"
)

// writeNamedImage assembles a tiny periodic task and writes its TELF
// encoding under dir.
func writeNamedImage(t *testing.T, dir, name, delay string) string {
	t.Helper()
	im, err := asm.Assemble(`
.task "` + name + `"
.entry main
.stack 128
.bss 28
.text
main:
    ldi32 r0, ` + delay + `
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
	path := filepath.Join(dir, name+delay+".telf")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestUpdateSignAndInfo: sign produces a structurally valid package the
// info verb can describe without keys.
func TestUpdateSignAndInfo(t *testing.T) {
	dir := t.TempDir()
	img := writeNamedImage(t, dir, "upd", "31200")
	pkg := filepath.Join(dir, "upd.upd")
	var out bytes.Buffer
	if err := runUpdateCmd([]string{"sign", "-version", "2", "-o", pkg, img}, &out); err != nil {
		t.Fatalf("sign: %v", err)
	}
	if !strings.Contains(out.String(), `signed "upd" version 2`) {
		t.Errorf("sign output %q", out.String())
	}
	blob, err := os.ReadFile(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if !telf.IsSigned(blob) {
		t.Fatal("sign output is not a signed package")
	}
	out.Reset()
	if err := runUpdateCmd([]string{"info", pkg}, &out); err != nil {
		t.Fatalf("info: %v", err)
	}
	for _, want := range []string{`task "upd" version 2`, "payload", "digest"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("info output missing %q:\n%s", want, out.String())
		}
	}
}

// TestUpdateCmdErrors: the verbs refuse malformed invocations loudly.
func TestUpdateCmdErrors(t *testing.T) {
	dir := t.TempDir()
	img := writeNamedImage(t, dir, "upd", "31200")
	var out bytes.Buffer
	if err := runUpdateCmd(nil, &out); err == nil {
		t.Error("no verb accepted")
	}
	if err := runUpdateCmd([]string{"frobnicate"}, &out); err == nil {
		t.Error("unknown verb accepted")
	}
	if err := runUpdateCmd([]string{"sign", img}, &out); err == nil {
		t.Error("sign without -version accepted")
	}
	if err := runUpdateCmd([]string{"sign", "-version", "1"}, &out); err == nil {
		t.Error("sign without an input accepted")
	}
	if err := runUpdateCmd([]string{"info", img}, &out); err == nil {
		t.Error("info accepted an unsigned image")
	}
}

// TestUpdateFlagMidRun: the full CLI path — sign v2, boot with v1, apply
// mid-run — succeeds, and corrupted or mistargeted packages make the
// run fail.
func TestUpdateFlagMidRun(t *testing.T) {
	dir := t.TempDir()
	v1 := writeNamedImage(t, dir, "upd", "31200")
	v2 := writeNamedImage(t, dir, "upd", "33000")
	pkg := filepath.Join(dir, "upd.upd")
	var out bytes.Buffer
	if err := runUpdateCmd([]string{"sign", "-version", "2", "-o", pkg, v2}, &out); err != nil {
		t.Fatal(err)
	}
	cfg := config{ms: 5, prio: 3, updatePath: pkg, deadline: 16 * 32_000, files: []string{v1}}
	if err := run(cfg, io.Discard); err != nil {
		t.Fatalf("mid-run update: %v", err)
	}

	// A corrupted package must fail the run, not apply.
	blob, err := os.ReadFile(pkg)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x01
	bad := filepath.Join(dir, "bad.upd")
	if err := os.WriteFile(bad, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(config{ms: 5, prio: 3, updatePath: bad, files: []string{v1}}, io.Discard); err == nil {
		t.Error("corrupted package applied")
	}

	// A package for a task that is not loaded must fail the run.
	other := writeNamedImage(t, dir, "ghost", "31200")
	gpkg := filepath.Join(dir, "ghost.upd")
	out.Reset()
	if err := runUpdateCmd([]string{"sign", "-version", "1", "-o", gpkg, other}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run(config{ms: 5, prio: 3, updatePath: gpkg, files: []string{v1}}, io.Discard); err == nil {
		t.Error("package for an unloaded task applied")
	}

	// -update on the baseline platform is refused up front.
	if err := run(config{ms: 1, baseline: true, normal: true, prio: 3, updatePath: pkg, files: []string{v1}}, io.Discard); err == nil {
		t.Error("-update accepted with -baseline")
	}
}
