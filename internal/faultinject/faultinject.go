// Package faultinject is a deterministic, seeded fault-injection
// harness for the simulated platform. It models the disturbances a tiny
// embedded device actually meets — memory corruption in untrusted task
// RAM, spurious interrupt storms, rogue tasks probing the isolation
// boundary, and a lossy network — and makes every run replayable: all
// randomness derives from one seed through a splitmix64 chain, so two
// runs with the same seed inject the identical fault sequence and
// produce identical simulated cycle counts.
//
// The harness deliberately attacks only what the paper's threat model
// allows to fail: untrusted task state and the outside world. Trusted
// regions are never a bit-flip target — the point of a chaos run is to
// show the trust anchor surviving everything around it.
package faultinject

import (
	"fmt"

	"repro/internal/machine"
)

// Class is a bitmask of fault classes to inject.
type Class uint32

const (
	// BitFlips flips single bits in the configured target RAM ranges
	// via the raw bus (hardware-level corruption the EA-MPU cannot see).
	BitFlips Class = 1 << iota
	// IRQStorms raises bursts of spurious external interrupts.
	IRQStorms
	// RogueTasks marks runs that load generated adversarial tasks (see
	// RogueSource); the injector itself does not act on this class.
	RogueTasks
	// ConnFaults marks runs whose attestation links are wrapped in
	// FaultyConn; the injector itself does not act on this class.
	ConnFaults

	// AllClasses enables everything.
	AllClasses = BitFlips | IRQStorms | RogueTasks | ConnFaults
)

// String names the classes in a stable order.
func (c Class) String() string {
	s := ""
	add := func(on Class, name string) {
		if c&on != 0 {
			if s != "" {
				s += "+"
			}
			s += name
		}
	}
	add(BitFlips, "bitflips")
	add(IRQStorms, "irqstorms")
	add(RogueTasks, "rogues")
	add(ConnFaults, "connfaults")
	if s == "" {
		return "none"
	}
	return s
}

// RNG is a splitmix64 generator — tiny, fast, and with the full-period
// determinism the harness needs. Not cryptographic, deliberately.
type RNG struct{ state uint64 }

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next value of the chain.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("faultinject: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a value in [lo, hi); hi must exceed lo.
func (r *RNG) Range(lo, hi uint64) uint64 {
	return lo + r.Uint64()%(hi-lo)
}

// Split derives an independent generator from this one, so subsystems
// (injector, each connection wrapper, rogue generation) can consume
// randomness without perturbing each other's sequences.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// TargetRange is a RAM range eligible for bit flips — an untrusted
// task's placement, never a trusted region.
type TargetRange struct {
	Start uint32
	Size  uint32
}

// Config parameterizes an Injector.
type Config struct {
	// Seed drives every choice; two injectors with equal seeds and
	// equal targets behave identically.
	Seed uint64
	// Classes selects what to inject (0 = AllClasses).
	Classes Class
	// MeanPeriod is the average cycle gap between injections
	// (0 = 150_000). Actual gaps are uniform in [P/2, 3P/2).
	MeanPeriod uint64
	// Burst bounds the spurious IRQs raised per storm (0 = 4).
	Burst int
}

func (c Config) withDefaults() Config {
	if c.Classes == 0 {
		c.Classes = AllClasses
	}
	if c.MeanPeriod == 0 {
		c.MeanPeriod = 150_000
	}
	if c.Burst == 0 {
		c.Burst = 4
	}
	return c
}

// Event is one injected fault, recorded for the audit trail.
type Event struct {
	// Cycle is the scheduled injection cycle (the event applies at the
	// first Advance at or after it).
	Cycle uint64
	// Class is the fault class.
	Class Class
	// Detail describes the concrete fault.
	Detail string
}

// Injector applies scheduled faults to a machine. Drive it from the
// simulation loop: call Advance after each slice of execution; all
// injections whose scheduled cycle has passed are applied.
type Injector struct {
	cfg     Config
	rng     *RNG
	targets []TargetRange
	nextAt  uint64
	events  []Event
	counts  map[Class]int
}

// NewInjector builds an injector whose whole schedule derives from
// cfg.Seed.
func NewInjector(cfg Config) *Injector {
	cfg = cfg.withDefaults()
	i := &Injector{
		cfg:    cfg,
		rng:    NewRNG(cfg.Seed),
		counts: map[Class]int{},
	}
	i.nextAt = i.gap()
	return i
}

// gap draws the next inter-injection interval.
func (i *Injector) gap() uint64 {
	p := i.cfg.MeanPeriod
	return i.rng.Range(p/2, p+p/2)
}

// SetTargets declares the RAM ranges bit flips may hit. Call it after
// loading the victim tasks; with no targets, bit-flip events are
// recorded as skipped.
func (i *Injector) SetTargets(rs ...TargetRange) { i.targets = rs }

// Events returns the audit trail.
func (i *Injector) Events() []Event { return i.events }

// Advance applies every injection scheduled at or before the machine's
// current cycle. The RNG consumption per event is independent of
// machine state, so two runs that drive Advance on the same slice
// boundaries inject identically.
func (i *Injector) Advance(m *machine.Machine) error {
	now := m.Cycles()
	for i.nextAt <= now {
		if err := i.inject(m, i.nextAt); err != nil {
			return err
		}
		i.nextAt += i.gap()
	}
	return nil
}

// injectable lists the classes the injector acts on directly.
var injectable = []Class{BitFlips, IRQStorms}

// inject applies one fault chosen from the enabled direct classes.
func (i *Injector) inject(m *machine.Machine, at uint64) error {
	var classes []Class
	for _, c := range injectable {
		if i.cfg.Classes&c != 0 {
			classes = append(classes, c)
		}
	}
	if len(classes) == 0 {
		return nil
	}
	switch classes[i.rng.Intn(len(classes))] {
	case BitFlips:
		return i.flipBit(m, at)
	case IRQStorms:
		return i.irqStorm(m, at)
	}
	return nil
}

// flipBit corrupts one bit of a random word inside a random target
// range.
func (i *Injector) flipBit(m *machine.Machine, at uint64) error {
	if len(i.targets) == 0 {
		i.record(at, BitFlips, "skipped: no targets")
		return nil
	}
	t := i.targets[i.rng.Intn(len(i.targets))]
	words := int(t.Size / 4)
	if words == 0 {
		i.record(at, BitFlips, "skipped: empty target")
		return nil
	}
	addr := t.Start + 4*uint32(i.rng.Intn(words))
	bit := uint(i.rng.Intn(32))
	v, err := m.RawRead32(addr)
	if err != nil {
		return fmt.Errorf("faultinject: read %#x: %w", addr, err)
	}
	if err := m.RawWrite32(addr, v^(1<<bit)); err != nil {
		return fmt.Errorf("faultinject: write %#x: %w", addr, err)
	}
	i.record(at, BitFlips, fmt.Sprintf("flip addr=%#x bit=%d", addr, bit))
	return nil
}

// irqStorm raises a burst of spurious external interrupts. The kernel
// must absorb them: ack, account latency, resume the preempted task.
func (i *Injector) irqStorm(m *machine.Machine, at uint64) error {
	n := 1 + i.rng.Intn(i.cfg.Burst)
	lines := make([]int, 0, n)
	for j := 0; j < n; j++ {
		line := machine.IRQExt0 + i.rng.Intn(machine.NumIRQs-machine.IRQExt0)
		m.RaiseIRQ(line)
		lines = append(lines, line)
	}
	i.record(at, IRQStorms, fmt.Sprintf("storm lines=%v", lines))
	return nil
}

func (i *Injector) record(at uint64, c Class, detail string) {
	i.events = append(i.events, Event{Cycle: at, Class: c, Detail: detail})
	i.counts[c]++
}
