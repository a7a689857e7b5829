package sverify_test

// Resource-bound soundness and admission tests: the static stack and
// cycle bounds are certificates, so the simulator must never be caught
// exceeding them — the dynamic SP excursion of every certified image
// stays within its static stack bound, and every measured trap-to-trap
// burst stays within its static cycle bound. The admission gate built
// on those certificates is exercised reason by reason.

import (
	"errors"
	"testing"

	"repro/internal/analyze"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/loader"
	"repro/internal/rtos"
	"repro/internal/sverify"
	"repro/internal/telf"
	"repro/internal/trace"
)

// TestContextFrameConstantsPinned holds the three copies of the
// pre-emption context-frame size together: the kernel owns the layout,
// the loader's admission check and sverify's stack-bound warning each
// mirror it (import cycles forbid sharing the constant).
func TestContextFrameConstantsPinned(t *testing.T) {
	if loader.ContextFrameBytes != rtos.ContextFrameBytes {
		t.Errorf("loader.ContextFrameBytes = %d, rtos.ContextFrameBytes = %d",
			loader.ContextFrameBytes, rtos.ContextFrameBytes)
	}
	if sverify.ContextFrameSlack != rtos.ContextFrameBytes {
		t.Errorf("sverify.ContextFrameSlack = %d, rtos.ContextFrameBytes = %d",
			sverify.ContextFrameSlack, rtos.ContextFrameBytes)
	}
}

// boundsCorpus returns every generator class expected to run without
// faulting, across several seeds, plus the example corpus.
func boundsCorpus(t *testing.T) []*telf.Image {
	t.Helper()
	var out []*telf.Image
	for _, im := range cleanCorpus(t) {
		out = append(out, im)
	}
	classes := []sverify.GenClass{
		sverify.GenCountedLoop, sverify.GenRecursionBounded,
		sverify.GenIndirectCall, sverify.GenIndirectCallOpaque,
		sverify.GenSPManip,
	}
	for _, class := range classes {
		for seed := uint64(0); seed < 4; seed++ {
			out = append(out, sverify.GenImage(class, seed))
		}
	}
	return out
}

// TestStaticBoundsDominateDynamic is the soundness loop of the bound
// engine: for every non-faulting image, run it on the real simulator
// with an SP probe attached and the burst telemetry on, then check that
// the measured worst-case stack excursion and the measured worst burst
// never exceed the static certificates. Unbounded verdicts assert
// nothing — the engine's contract is one-sided.
func TestStaticBoundsDominateDynamic(t *testing.T) {
	for _, im := range boundsCorpus(t) {
		im := im
		t.Run(im.Name, func(t *testing.T) {
			rep := sverify.Verify(im, sverify.Config{})
			if rep.HasErrors() {
				t.Fatalf("corpus image has error findings:\n%v", rep.Errors())
			}
			if rep.Bounds == nil {
				t.Fatal("no bounds in report")
			}

			p, err := core.NewPlatform(core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			obs := p.EnableObservability()

			// SP probe: the first retired instruction of the (only) ISA
			// task runs at its entry with SP at the top of its stack; the
			// deepest pre-step SP thereafter bounds the real excursion.
			var entrySP, minSP uint32
			seen := false
			p.M.OnStep = func(pc uint32, in isa.Instruction) {
				sp := p.M.Reg(isa.SP)
				if !seen {
					entrySP, minSP, seen = sp, sp, true
					return
				}
				if sp < minSP {
					minSP = sp
				}
			}

			if _, _, err := p.LoadTaskSync(im, rtos.KindSecure, 3); err != nil {
				t.Fatalf("load: %v", err)
			}
			if err := p.Run(1_500_000); err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, rec := range p.K.Exits() {
				if rec.Reason.Cause.IsFault() {
					t.Fatalf("corpus image faulted: %+v", rec.Reason)
				}
			}

			b := rep.Bounds
			if b.StackBounded && seen {
				if exc := uint64(entrySP - minSP); exc > uint64(b.StackBytes) {
					t.Errorf("dynamic stack excursion %d bytes exceeds static bound %d (unsound)",
						exc, b.StackBytes)
				}
			}

			a := analyze.Analyze(obs.Buf.Events())
			st, ok := a.Bursts[im.Name]
			if !ok || st.Count == 0 {
				t.Fatal("no measured bursts in the trace")
			}
			if b.CyclesBounded {
				if st.Max > b.Cycles {
					t.Errorf("measured burst %d cycles exceeds static bound %d (unsound)",
						st.Max, b.Cycles)
				}
				// The analyzer's cross-check must agree.
				if viol := a.CrossCheckBounds(map[string]uint64{im.Name: b.Cycles}); len(viol) != 0 {
					t.Errorf("CrossCheckBounds reports %+v for a sound bound", viol)
				}
			}
		})
	}
}

// assembleBoundsProbe builds a tiny hand-written image for one
// admission rule.
func assembleBoundsProbe(t *testing.T, src string) *telf.Image {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// loadDenied loads im on p and returns the typed bounds refusal.
func loadDenied(t *testing.T, p *core.Platform, im *telf.Image) *loader.BoundsError {
	t.Helper()
	_, _, err := p.LoadTaskSync(im, rtos.KindSecure, 3)
	if !errors.Is(err, loader.ErrBoundsRejected) {
		t.Fatalf("%s: err = %v, want ErrBoundsRejected", im.Name, err)
	}
	var be *loader.BoundsError
	if !errors.As(err, &be) {
		t.Fatalf("%s: refusal is not a *BoundsError: %v", im.Name, err)
	}
	return be
}

// deniedReason returns the reason attr of the single verify-denied
// event for the image.
func deniedReason(t *testing.T, obs *core.Obs, name string) string {
	t.Helper()
	reason := ""
	n := 0
	for _, e := range obs.Buf.Events() {
		if e.Kind == trace.KindVerifyDenied && e.Subject == name {
			n++
			if a, ok := e.Attr("reason"); ok {
				reason = a.Str
			}
		}
	}
	if n != 1 {
		t.Fatalf("%s: %d verify-denied events, want 1", name, n)
	}
	return reason
}

// TestBoundsAdmission exercises the admission gate reason by reason:
// every refusal is typed, traced with the same reason token, and leaves
// no task installed; certified-in-budget images load normally.
func TestBoundsAdmission(t *testing.T) {
	overBudget := sverify.GenImage(sverify.GenClean, 1)
	inBudget := sverify.GenImage(sverify.GenClean, 2)
	inRep := sverify.Verify(inBudget, sverify.Config{})
	if inRep.Bounds == nil || !inRep.Bounds.CyclesBounded {
		t.Fatal("clean generation lost its cycle bound")
	}

	spin := assembleBoundsProbe(t, `
.task "spin-forever"
.stack 64
.text
loop:
	jmp loop
`)
	deepStack := assembleBoundsProbe(t, `
.task "deep-stack"
.stack 40
.text
	push r1
	pop r1
	hlt
`)

	p, err := core.NewPlatform(core.Options{
		BoundsAdmission: true,
		CycleBudgets: map[string]uint64{
			overBudget.Name: 1,
			inBudget.Name:   inRep.Bounds.Cycles,
			spin.Name:       1_000_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.BoundsAdmission() || !p.StrictVerify() {
		t.Fatal("BoundsAdmission option did not arm the gate")
	}
	obs := p.EnableObservability()

	cases := []struct {
		im     *telf.Image
		reason string
	}{
		{overBudget, "cycle-over-budget"},
		{spin, "cycles-unbounded"},
		{deepStack, "stack-over-reservation"},
		{sverify.GenImage(sverify.GenSPManip, 0), "stack-unbounded"},
	}
	for _, c := range cases {
		be := loadDenied(t, p, c.im)
		if be.Reason != c.reason {
			t.Errorf("%s: reason = %q, want %q", c.im.Name, be.Reason, c.reason)
		}
		if got := deniedReason(t, obs, c.im.Name); got != c.reason {
			t.Errorf("%s: traced reason = %q, want %q", c.im.Name, got, c.reason)
		}
	}

	// An image whose certificate fits its declared budget loads, runs,
	// and carries its bounds into the RTM registry.
	tcb, _, err := p.LoadTaskSync(inBudget, rtos.KindSecure, 3)
	if err != nil {
		t.Fatalf("in-budget image refused: %v", err)
	}
	entry, ok := p.C.RTM.LookupByTask(tcb.ID)
	if !ok {
		t.Fatal("loaded task missing from the RTM registry")
	}
	if entry.Bounds == nil || !entry.Bounds.CyclesBounded || entry.Bounds.Cycles != inRep.Bounds.Cycles {
		t.Fatalf("registry bounds = %+v, want the verification certificate %+v", entry.Bounds, inRep.Bounds)
	}
	if err := p.Run(500_000); err != nil {
		t.Fatal(err)
	}
}

// TestBoundsAdmissionCostCharged: arming the bound engine adds its
// modeled analysis cost to the verify phase.
func TestBoundsAdmissionCostCharged(t *testing.T) {
	im := sverify.GenImage(sverify.GenClean, 4)
	plain := &loader.Gate{}
	armed := &loader.Gate{Bounds: true}
	if plain.Cost(im) >= armed.Cost(im) {
		t.Fatalf("armed gate cost %d not above plain %d", armed.Cost(im), plain.Cost(im))
	}
}

// BenchmarkVerify times the full static verification of one image per
// generator class — CFG, abstract interpretation and the certified
// resource bounds — the work the strict pre-load gate adds to a load,
// on every shape the gate sees (recursion, indirect calls, SP
// manipulation, faulting images), not only one counted loop.
func BenchmarkVerify(b *testing.B) {
	for c := sverify.GenClass(0); c < sverify.NumGenClasses; c++ {
		im := sverify.GenImage(c, 0)
		b.Run(c.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep := sverify.Verify(im, sverify.Config{})
				if c == sverify.GenCountedLoop && (rep.Bounds == nil || !rep.Bounds.CyclesBounded) {
					b.Fatal("counted-loop image lost its certified cycle bound")
				}
			}
		})
	}
}
