package benchlab

import (
	"fmt"
	"testing"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/machine"
)

// useCaseRow is the full Table 1 use case — secure boot, three task
// loads, interrupts, IPC, MPU reconfiguration — as a contract row, with
// interruptible or atomic (non-interruptible) loading.
func useCaseRow(atomic bool, axes ...contract.Axis) contract.Row {
	name := "usecase"
	if atomic {
		name += "-atomic"
	}
	return contract.Row{Name: name, Axes: axes, Produce: func(t *testing.T, _ contract.Point) []byte {
		res, err := RunUseCase(atomic)
		if err != nil {
			t.Fatal(err)
		}
		if res.Instructions == 0 || res.TotalCycles == 0 {
			t.Errorf("instruction/cycle accounting missing: %+v", res)
		}
		return fmt.Appendf(nil, "%+v\n", res)
	}}
}

// engineRow is a contract row over the engine axis whose producer also
// checks that blocks were compiled on the production engine only —
// which guards the row against comparing the interpreter with itself.
func engineRow(name string, run func(t *testing.T) (out any, stats machine.Stats)) contract.Row {
	return contract.Row{Name: name, Axes: []contract.Axis{contract.Engine}, Produce: func(t *testing.T, at contract.Point) []byte {
		out, stats := run(t)
		if compiled := stats.SBCompiles > 0; compiled != machine.FastPathDefault {
			t.Errorf("%v: compiled blocks = %v", at, compiled)
		}
		return fmt.Appendf(nil, "%+v\n", out)
	}}
}

// TestUseCaseFastPathEquivalence is the system-level differential check
// for the production engine: the use case with interruptible loading
// must produce bit-identical results on the production engine (decode
// caches plus superblock compilation) and on the reference interpreter.
// Companion to the lockstep tests in internal/machine.
func TestUseCaseFastPathEquivalence(t *testing.T) {
	contract.Check(t, useCaseRow(false, contract.Engine))
}

// TestUseCaseAtomicFastPathEquivalence repeats the check for the atomic
// (non-interruptible) loading ablation, whose control flow differs.
func TestUseCaseAtomicFastPathEquivalence(t *testing.T) {
	contract.Check(t, useCaseRow(true, contract.Engine))
}

// TestUseCaseSuperblockEquivalence: the use-case tasks, run on each
// engine for the same window, must retire the same instructions in the
// same cycles, with superblocks compiled on the production engine only.
func TestUseCaseSuperblockEquivalence(t *testing.T) {
	contract.Check(t, engineRow("usecase-window", func(t *testing.T) (any, machine.Stats) {
		p := mustPlatform(core.Options{})
		defer p.Close()
		for _, tag := range []int{tagT0, tagT1} {
			im := UseCaseTaskImage(tag, useCasePeriod)
			im.Name = fmt.Sprintf("t%d", tag-1)
			if _, _, err := p.LoadTaskSync(im, core.Secure, 5); err != nil {
				t.Fatalf("load: %v", err)
			}
		}
		if err := p.Run(64 * core.DefaultTickPeriod); err != nil {
			t.Fatalf("run: %v", err)
		}
		stats := p.M.Stats()
		return [2]uint64{stats.InsnRetired, p.Cycles()}, stats
	}))
}

// TestKernelEngineEquivalence runs the compute kernel on the reference
// oracle and the production engine and demands identical architectural
// digests.
func TestKernelEngineEquivalence(t *testing.T) {
	contract.Check(t, engineRow("kernel", func(t *testing.T) (any, machine.Stats) {
		k, err := NewKernelRun(machine.FastPathDefault)
		if err != nil {
			t.Fatal(err)
		}
		res, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, k.Stats()
	}))
}

// TestChaosSuperblockEquivalence replays the chaos seed matrix on both
// engines. Fault injection, task restarts, attestation retries and link
// disturbances are all keyed to simulated cycles, so any cycle drift in
// the compiled engine shows up as a transcript diff here.
func TestChaosSuperblockEquivalence(t *testing.T) {
	for _, seed := range seedsForMode(t) {
		t.Run(fmt0x(seed), func(t *testing.T) { contract.Check(t, chaosRow(seed, nil, contract.Engine)) })
	}
}
