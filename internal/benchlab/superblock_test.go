package benchlab

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// withEngine runs f with the package-default execution engine forced to
// production (fast=true) or the reference oracle, restoring it after.
func withEngine(fast bool, f func()) {
	prev := machine.FastPathDefault
	machine.FastPathDefault = fast
	defer func() { machine.FastPathDefault = prev }()
	f()
}

// checkUseCaseEquivalence is the system-level differential check for
// the production engine: the full Table 1 use case — secure boot,
// three task loads, interrupts, IPC, MPU reconfiguration — must produce
// bit-identical results on the production engine (decode caches plus
// superblock compilation) and on the reference interpreter. Companion
// to the lockstep tests in internal/machine.
func checkUseCaseEquivalence(t *testing.T, atomic bool) {
	t.Helper()
	var prod, ref UseCaseResult
	var err error
	withEngine(true, func() { prod, err = RunUseCase(atomic) })
	if err != nil {
		t.Fatalf("production atomic=%v: %v", atomic, err)
	}
	withEngine(false, func() { ref, err = RunUseCase(atomic) })
	if err != nil {
		t.Fatalf("reference atomic=%v: %v", atomic, err)
	}
	if prod != ref {
		t.Errorf("atomic=%v: production engine diverged from reference:\nprod: %+v\nref:  %+v", atomic, prod, ref)
	}
	if prod.Instructions == 0 || prod.TotalCycles == 0 {
		t.Errorf("atomic=%v: instruction/cycle accounting missing: %+v", atomic, prod)
	}
}

// TestUseCaseFastPathEquivalence checks the use case with interruptible
// loading.
func TestUseCaseFastPathEquivalence(t *testing.T) { checkUseCaseEquivalence(t, false) }

// TestUseCaseAtomicFastPathEquivalence repeats the check for the atomic
// (non-interruptible) loading ablation, whose control flow differs.
func TestUseCaseAtomicFastPathEquivalence(t *testing.T) { checkUseCaseEquivalence(t, true) }

// TestUseCaseSuperblockEquivalence guards the two checks above against
// comparing the interpreter with itself: the use-case tasks, run on each
// engine for the same window, must retire the same instructions in the
// same cycles, with superblocks compiled on the production engine only.
func TestUseCaseSuperblockEquivalence(t *testing.T) {
	var stats [2]machine.Stats
	var cycles [2]uint64
	for i, fast := range []bool{false, true} {
		withEngine(fast, func() {
			p := mustPlatform(core.Options{})
			defer p.Close()
			for _, tag := range []int{tagT0, tagT1} {
				im := UseCaseTaskImage(tag, useCasePeriod)
				im.Name = fmt.Sprintf("t%d", tag-1)
				if _, _, err := p.LoadTaskSync(im, core.Secure, 5); err != nil {
					t.Fatalf("fast=%v: load: %v", fast, err)
				}
			}
			if err := p.Run(64 * core.DefaultTickPeriod); err != nil {
				t.Fatalf("fast=%v: run: %v", fast, err)
			}
			stats[i], cycles[i] = p.M.Stats(), p.Cycles()
		})
		if compiled := stats[i].SBCompiles > 0; compiled != fast {
			t.Errorf("fast=%v: compiled blocks = %v", fast, compiled)
		}
	}
	if stats[0].InsnRetired != stats[1].InsnRetired || cycles[0] != cycles[1] {
		t.Errorf("engines diverged: ref %d insns in %d cycles, prod %d insns in %d cycles",
			stats[0].InsnRetired, cycles[0], stats[1].InsnRetired, cycles[1])
	}
}

// TestKernelEngineEquivalence runs the compute kernel on the reference
// oracle and the production engine and demands identical architectural
// digests, with blocks compiled on the production side only.
func TestKernelEngineEquivalence(t *testing.T) {
	var digests [2]KernelResult
	for i, fast := range []bool{false, true} {
		k, err := NewKernelRun(fast)
		if err != nil {
			t.Fatal(err)
		}
		if digests[i], err = k.Run(); err != nil {
			t.Fatalf("fast=%v: %v", fast, err)
		}
		if compiled := k.Stats().SBCompiles > 0; compiled != fast {
			t.Errorf("fast=%v: compiled blocks = %v", fast, compiled)
		}
	}
	if digests[1] != digests[0] {
		t.Errorf("engines diverged:\nref:  %+v\nprod: %+v", digests[0], digests[1])
	}
}

// TestChaosSuperblockEquivalence replays the chaos seed matrix on the
// production engine and compares the full deterministic
// transcript against the reference interpreter. Fault injection, task
// restarts, attestation retries and link disturbances are all keyed to
// simulated cycles, so any cycle drift in the compiled engine shows up
// as a transcript diff here.
func TestChaosSuperblockEquivalence(t *testing.T) {
	for _, seed := range seedsForMode(t) {
		seed := seed
		t.Run(fmt0x(seed), func(t *testing.T) {
			var sb, ref *ChaosResult
			var err error
			withEngine(true, func() { sb, err = RunChaos(ChaosConfig{Seed: seed}) })
			if err != nil {
				t.Fatalf("superblock: %v", err)
			}
			withEngine(false, func() { ref, err = RunChaos(ChaosConfig{Seed: seed}) })
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			// Obs is nil on both sides (Observe unset); everything else
			// is the deterministic transcript.
			if !reflect.DeepEqual(sb, ref) {
				t.Errorf("superblock transcript diverged from reference:\nsb:  %+v\nref: %+v", sb, ref)
			}
		})
	}
}
