package sverify_test

// Differential soundness tests: the verifier's one-sided contract is
// checked against the real simulator. Every image the verifier passes
// (the examples corpus plus seeded clean generations) must run without
// EA-MPU violations or fault exits; every image with a Definite error
// must actually fault when run with the gate off. This is the loop the
// whole PR closes — a linter whose verdicts are never executed drifts.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/loader"
	"repro/internal/rtos"
	"repro/internal/sverify"
	"repro/internal/telf"
	"repro/internal/trace"
	"repro/internal/trusted"
)

// TestDefaultSyscallsMatchPlatform pins sverify's literal allowlist
// (which cannot import rtos/trusted) to the authoritative platform set.
func TestDefaultSyscallsMatchPlatform(t *testing.T) {
	if got, want := sverify.DefaultSyscalls(), trusted.AllowedSyscalls(); !reflect.DeepEqual(got, want) {
		t.Fatalf("sverify.DefaultSyscalls = %v, platform allowlist = %v — update one of them", got, want)
	}
}

// TestExtentMatchesLoaderGranule pins sverify's internal layout/extent
// computation to the loader's: a relocated word store ending exactly at
// the granule-rounded placed size is clean, one word further is an
// out-of-bounds error.
func TestExtentMatchesLoaderGranule(t *testing.T) {
	build := func(target uint32) *telf.Image {
		im, err := asm.Assemble(`
.task "extent"
.stack 64
.text
	ldi32 r1, buf
	st [r1], r0
	hlt
.data
buf:	.word 0
`)
		if err != nil {
			t.Fatal(err)
		}
		// Repoint the relocated immediate at the probe target.
		im.Text[4] = byte(target)
		im.Text[5] = byte(target >> 8)
		im.Text[6] = byte(target >> 16)
		im.Text[7] = byte(target >> 24)
		return im
	}
	probe := build(0)
	extent := (loader.PlacedSize(probe) + loader.Granule - 1) &^ uint32(loader.Granule-1)

	if rep := sverify.Verify(build(extent-4), sverify.Config{}); rep.HasErrors() {
		t.Fatalf("store ending at the extent (%d) flagged:\n%v", extent, rep.Findings)
	}
	rep := sverify.Verify(build(extent), sverify.Config{})
	found := false
	for _, f := range rep.Findings {
		if f.Code == "oob-access" {
			found = true
		}
	}
	if !found {
		t.Fatalf("store past the extent (%d) not flagged: %v", extent, rep.Findings)
	}
}

// corpus returns the checked-in example tasks plus seeded clean images.
func cleanCorpus(t *testing.T) map[string]*telf.Image {
	t.Helper()
	out := make(map[string]*telf.Image)
	dir := filepath.Join("..", "..", "examples", "tasks")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("examples corpus: %v", err)
	}
	n := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".s") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		im, err := asm.Assemble(string(src))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out[e.Name()] = im
		n++
	}
	if n == 0 {
		t.Fatal("no example tasks found — corpus path wrong?")
	}
	for seed := uint64(0); seed < 8; seed++ {
		im := sverify.GenImage(sverify.GenClean, seed)
		out[im.Name] = im
	}
	return out
}

// runImage boots a TyTAN platform (gate off), loads the image as a
// secure task, runs it, and reports (violations, faultExits).
func runImage(t *testing.T, im *telf.Image) (uint64, []rtos.ExitRecord) {
	t.Helper()
	p, err := core.NewPlatform(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, _, err := p.LoadTaskSync(im, rtos.KindSecure, 3); err != nil {
		t.Fatalf("%s: load: %v", im.Name, err)
	}
	if err := p.Run(1_500_000); err != nil {
		t.Fatalf("%s: run: %v", im.Name, err)
	}
	var faults []rtos.ExitRecord
	for _, rec := range p.K.Exits() {
		if rec.Reason.Cause.IsFault() {
			faults = append(faults, rec)
		}
	}
	return p.M.MPU.Violations(), faults
}

// TestCleanImagesRunClean: every sverify-clean image must execute
// without EA-MPU violations or abnormal exits.
func TestCleanImagesRunClean(t *testing.T) {
	for name, im := range cleanCorpus(t) {
		rep := sverify.Verify(im, sverify.Config{})
		if rep.HasErrors() {
			t.Errorf("%s: verifier flags a known-good image:\n%v", name, rep.Errors())
			continue
		}
		violations, faults := runImage(t, im)
		if violations != 0 {
			t.Errorf("%s: verified clean but caused %d EA-MPU violation(s)", name, violations)
		}
		if len(faults) != 0 {
			t.Errorf("%s: verified clean but exited abnormally: %+v", name, faults[0].Reason)
		}
	}
}

// TestDefiniteErrorImagesFault: every image the verifier marks with a
// Definite error must actually trap when run with the gate off.
func TestDefiniteErrorImagesFault(t *testing.T) {
	classes := []sverify.GenClass{
		sverify.GenInvalidOpcode, sverify.GenBadSyscall,
		sverify.GenWildStore, sverify.GenMisaligned, sverify.GenBranchMidInsn,
		sverify.GenRecursionInfinite,
	}
	for _, class := range classes {
		for seed := uint64(0); seed < 4; seed++ {
			im := sverify.GenImage(class, seed)
			rep := sverify.Verify(im, sverify.Config{})
			if len(rep.DefiniteErrors()) == 0 {
				t.Fatalf("%s: no definite error", im.Name)
			}
			violations, faults := runImage(t, im)
			if violations == 0 && len(faults) == 0 {
				t.Errorf("%s: definite error but the task ran clean (unsound verifier)", im.Name)
			}
		}
	}
}

// TestStrictGateRefusesBrokenImages: the wired gate refuses definite-
// error images with a typed error and a verify-denied trace event, and
// passes clean images (charging the verify phase).
func TestStrictGateRefusesBrokenImages(t *testing.T) {
	p, err := core.NewPlatform(core.Options{StrictVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	obs := p.EnableObservability()

	bad := sverify.GenImage(sverify.GenInvalidOpcode, 1)
	if _, _, err := p.LoadTaskSync(bad, rtos.KindSecure, 3); !errors.Is(err, loader.ErrVerifyRejected) {
		t.Fatalf("broken image: err = %v, want ErrVerifyRejected", err)
	}
	if n := obs.Buf.Count(trace.KindVerifyDenied, bad.Name, 0, ^uint64(0)); n != 1 {
		t.Fatalf("verify-denied events for %s: %d, want 1", bad.Name, n)
	}

	good := sverify.GenImage(sverify.GenClean, 1)
	req := p.LoadTaskAsync(good, rtos.KindSecure, 3)
	if err := p.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if !req.Done() || req.Err() != nil {
		t.Fatalf("clean image rejected by the gate: done=%v err=%v", req.Done(), req.Err())
	}
	if req.Breakdown.Verify == 0 {
		t.Fatal("gate armed but no verify cycles charged")
	}
	if req.Breakdown.Total() <= req.Breakdown.Verify {
		t.Fatal("breakdown total does not include the other phases")
	}
}

// TestStrictVerifyBaselineRejected: the gate is trusted-layer policy;
// the baseline configuration cannot arm it.
func TestStrictVerifyBaselineRejected(t *testing.T) {
	if _, err := core.NewPlatform(core.Options{Baseline: true, StrictVerify: true}); !errors.Is(err, core.ErrBaselineOnly) {
		t.Fatalf("baseline + StrictVerify: err = %v, want ErrBaselineOnly", err)
	}
	if _, err := core.NewPlatform(core.Options{Baseline: true, BoundsAdmission: true}); !errors.Is(err, core.ErrBaselineOnly) {
		t.Fatalf("baseline + BoundsAdmission: err = %v, want ErrBaselineOnly", err)
	}
}

// TestGateOffIsFree: with the gate unarmed the load pipeline is
// unchanged — no verify phase, no verify cycles (the cycle-exact
// ablation numbers must not move).
func TestGateOffIsFree(t *testing.T) {
	p, err := core.NewPlatform(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	im := sverify.GenImage(sverify.GenClean, 3)
	req := p.LoadTaskAsync(im, rtos.KindSecure, 3)
	if err := p.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if !req.Done() || req.Err() != nil {
		t.Fatalf("load failed: done=%v err=%v", req.Done(), req.Err())
	}
	if req.Breakdown.Verify != 0 {
		t.Fatalf("gate off but %d verify cycles charged", req.Breakdown.Verify)
	}
}
