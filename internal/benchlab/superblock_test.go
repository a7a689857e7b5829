package benchlab

import (
	"fmt"
	"testing"

	"repro/internal/asm"
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

// hotTaskSrc is a use-case control task whose every activation first
// spins a compute loop of 2,000 iterations, far past the production
// engine's warm-up gate, before it writes its tag and sleeps: the
// Table 1 tasks themselves run each instruction once per activation,
// so they never compile.
func hotTaskSrc(tag int) string {
	return fmt.Sprintf(`
.task "h%d"
.entry main
.stack 192
.bss 28
.text
main:
    ldi32 r4, 0xF0000500   ; engine actuator
loop:
    ldi r1, 2000
spin:
    addi r0, 3
    addi r1, -1
    cmpi r1, 0
    bne spin
    ldi r2, %d             ; activation tag
    st [r4+0], r2
    ldi r0, %d
    svc 2                  ; sleep one period
    jmp loop
`, tag, tag, useCasePeriod)
}

// TestUseCaseSuperblockEquivalence: two hot use-case tasks, run on each
// engine through the same window, must retire the same instructions in
// the same cycles, with superblocks compiled on the production engine
// only. The window holds ticks, pre-emption between the two tasks, and
// the interruptible load of t2 with its EA-MPU reconfiguration, so
// compiled blocks meet the whole platform in lockstep.
func TestUseCaseSuperblockEquivalence(t *testing.T) {
	contract.Check(t, engineRow("usecase-window", func(t *testing.T) (any, machine.Stats) {
		p := mustPlatform(core.Options{})
		defer p.Close()
		for _, tag := range []int{tagT0, tagT1} {
			im, err := asm.Assemble(hotTaskSrc(tag))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := p.LoadTaskSync(im, core.Secure, 5); err != nil {
				t.Fatalf("load: %v", err)
			}
		}
		if err := p.Run(16 * core.DefaultTickPeriod); err != nil {
			t.Fatalf("run: %v", err)
		}
		req := p.LoadTaskAsync(UseCaseT2Image(tagT2, useCasePeriod), core.Secure, 4)
		for i := 0; !req.Done() && i < 200; i++ {
			if err := p.Run(core.DefaultTickPeriod); err != nil {
				t.Fatalf("run: %v", err)
			}
		}
		if !req.Done() {
			t.Fatal("t2 load never completed")
		}
		if err := req.Err(); err != nil {
			t.Fatalf("load t2: %v", err)
		}
		if err := p.Run(16 * core.DefaultTickPeriod); err != nil {
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
	for _, seed := range chaosSeeds() {
		t.Run(fmt0x(seed), func(t *testing.T) { contract.Check(t, chaosRow(seed, contract.Engine)) })
	}
}
