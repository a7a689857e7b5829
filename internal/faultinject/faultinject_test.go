package faultinject

import (
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/contract"
	"repro/internal/machine"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Error("different seeds produce overlapping sequences")
	}
}

// drive runs an injector against a machine for bound cycles in fixed
// slices, mimicking how the chaos harness drives it.
func drive(t *testing.T, m *machine.Machine, inj *Injector, bound uint64) {
	t.Helper()
	for m.Cycles() < bound {
		m.Charge(20_000)
		if err := inj.Advance(m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	contract.Check(t, contract.Row{Name: "injector", Produce: func(t *testing.T, _ contract.Point) []byte {
		m := machine.New(64 * 1024)
		// Seed a recognizable RAM pattern.
		for i := uint32(0); i < 256; i += 4 {
			m.RawWrite32(machine.RAMBase+i, 0xA5A5_A5A5)
		}
		inj := NewInjector(Config{Seed: 7, Classes: BitFlips | IRQStorms, MeanPeriod: 40_000})
		inj.SetTargets(TargetRange{Start: machine.RAMBase, Size: 256})
		drive(t, m, inj, 2_000_000)
		if len(inj.Events()) == 0 {
			t.Fatal("no events injected")
		}
		out := fmt.Appendf(nil, "%+v\ncycles %d\n", inj.Events(), m.Cycles())
		for i := uint32(0); i < 256; i += 4 {
			v, _ := m.RawRead32(machine.RAMBase + i)
			out = fmt.Appendf(out, "%08x", v)
		}
		return out
	}})
}

func TestInjectorRespectsClassMask(t *testing.T) {
	m := machine.New(64 * 1024)
	m.RawWrite32(machine.RAMBase, 0x1234_5678)
	inj := NewInjector(Config{Seed: 9, Classes: IRQStorms, MeanPeriod: 30_000})
	inj.SetTargets(TargetRange{Start: machine.RAMBase, Size: 256})
	drive(t, m, inj, 1_000_000)

	if n := inj.Counts()[BitFlips]; n != 0 {
		t.Errorf("bit flips injected despite mask: %d", n)
	}
	if n := inj.Counts()[IRQStorms]; n == 0 {
		t.Error("no IRQ storms injected")
	}
	if v, _ := m.RawRead32(machine.RAMBase); v != 0x1234_5678 {
		t.Errorf("RAM modified despite bit flips masked: %#x", v)
	}
}

func TestBitFlipStaysInsideTargets(t *testing.T) {
	m := machine.New(64 * 1024)
	// Target only [RAMBase+64, RAMBase+128); everything else must stay
	// zero.
	inj := NewInjector(Config{Seed: 11, Classes: BitFlips, MeanPeriod: 20_000})
	inj.SetTargets(TargetRange{Start: machine.RAMBase + 64, Size: 64})
	drive(t, m, inj, 2_000_000)

	if inj.Counts()[BitFlips] == 0 {
		t.Fatal("no flips")
	}
	for i := uint32(0); i < 1024; i += 4 {
		v, _ := m.RawRead32(machine.RAMBase + i)
		inside := i >= 64 && i < 128
		if !inside && v != 0 {
			t.Fatalf("flip escaped target range: +%d = %#x", i, v)
		}
	}
}

func TestRogueSourceDeterministicAndAssemblable(t *testing.T) {
	targets := RogueTargets{TrustedAddr: 0x6000, ForeignAddr: 0x40_1000}
	kinds := map[string]bool{}
	for seed := uint64(1); seed <= 40; seed++ {
		s1, k1 := RogueSource(NewRNG(seed), "rogue", targets)
		s2, k2 := RogueSource(NewRNG(seed), "rogue", targets)
		if s1 != s2 || k1 != k2 {
			t.Fatalf("seed %d: source not deterministic", seed)
		}
		if _, err := asm.Assemble(s1); err != nil {
			t.Fatalf("seed %d: %s probe does not assemble: %v\n%s", seed, k1, err, s1)
		}
		kinds[k1] = true
	}
	for _, k := range []string{"trusted-write", "foreign-write", "bad-syscall", "forged-sp"} {
		if !kinds[k] {
			t.Errorf("no seed drew the %s probe", k)
		}
	}
	if len(kinds) != 4 {
		t.Errorf("probe kinds drawn = %v, want 4", kinds)
	}
	s1, _ := RogueSource(NewRNG(1), "rogue", targets)
	s2, _ := RogueSource(NewRNG(2), "rogue", targets)
	if s1 == s2 {
		t.Error("different seeds generate identical rogues")
	}
}

func TestFaultyConnBoundedAndDeterministic(t *testing.T) {
	run := func(seed uint64) []string {
		a, b := net.Pipe()
		defer a.Close()
		go io.Copy(io.Discard, b) // drain
		fc := WrapConn(a, ConnConfig{Seed: seed, MaxFaults: 3, Percent: 80})
		msg := []byte("0123456789abcdef")
		for i := 0; i < 20; i++ {
			if _, err := fc.Write(msg); err != nil {
				t.Fatal(err)
			}
		}
		b.Close()
		return fc.Faults()
	}
	f1, f2 := run(5), run(5)
	if !reflect.DeepEqual(f1, f2) {
		t.Fatalf("fault logs diverged:\n%v\n%v", f1, f2)
	}
	if len(f1) == 0 {
		t.Fatal("no faults with 80%% rate over 20 writes")
	}
	if len(f1) > 3 {
		t.Fatalf("budget exceeded: %d faults", len(f1))
	}
}
