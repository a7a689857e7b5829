package benchlab

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/remote"
	"repro/internal/rtos"
	"repro/internal/sha1"
	"repro/internal/trusted"
)

// chaosSlice is the run-loop granularity: faults are injected and
// milestones observed at these boundaries.
const chaosSlice = 20_000

// The chaos scenario's fixed bounds: the run fails if its milestones
// are still outstanding at chaosMaxCycles, and the injector fires every
// chaosMeanPeriod cycles on average.
const (
	chaosMaxCycles  = 25_000_000
	chaosMeanPeriod = 120_000
)

// chaosIOTimeout bounds each host-side attestation exchange. Every
// link fault ends with the device closing its end, so no exchange needs
// the deadline to make progress; it only guards against a hung one. It
// must stay far above host scheduling latency: chaos cells run beside
// the rest of the matrix, and a deadline that fired under CPU
// contention would change the cell's attempt counts.
const chaosIOTimeout = 10 * time.Second

// victimSrc is the periodic task whose liveness the run asserts.
const victimSrc = `
.task "victim"
.entry main
.stack 128
.bss 28
.text
main:
    ldi32 r0, 31200
    svc 2
    jmp main
`

// patsySrc is the bit-flip target. Its RAM — code included — is fair
// game; the supervisor restarts it if corruption makes it fault.
const patsySrc = `
.task "patsy"
.entry main
.stack 128
.bss 28
.text
main:
    ldi32 r0, 40000
    svc 2
    jmp main
`

// chaosSLO is the chaos scenario's SLO: the victim keeps its deadline
// through the whole fault load, and the device served at least one
// attestation round trip.
const chaosSLO = "deadline_miss == 0\nattest_rtt count >= 1"

// faultLoad is the fault harness the update-with-faults and chaos
// scenarios share: the scenario's task beside a watched patsy under one
// supervisor policy, a seeded injector aimed at the patsy's RAM, and a
// baseline of the memory no fault may change.
type faultLoad struct {
	p        *core.Platform
	task     *rtos.TCB
	id       sha1.Digest
	patsy    *rtos.TCB
	inj      *faultinject.Injector
	baseline trustedBaseline
}

// bootFaultLoad boots the cell under supervision (2 restarts, 20,000
// cycles apart), loads the task src, then the watched patsy.
func (e *ScenarioEnv) bootFaultLoad(src string) (*faultLoad, error) {
	if err := e.boot(core.Options{}); err != nil {
		return nil, err
	}
	if _, err := e.P.EnableSupervision(trusted.SupervisorPolicy{
		MaxRestarts:  2,
		RestartDelay: 20_000,
	}); err != nil {
		return nil, err
	}
	f := &faultLoad{p: e.P}
	var err error
	if f.task, f.id, err = e.load(src, 3); err != nil {
		return nil, err
	}
	if f.patsy, _, err = e.load(patsySrc, 3); err != nil {
		return nil, err
	}
	return f, e.P.Watch(f.patsy.ID)
}

// arm aims an injector built from cfg at the patsy and snapshots the
// trusted ranges plus the extra spans no fault may change.
func (f *faultLoad) arm(cfg faultinject.Config, extra ...[2]uint32) error {
	f.inj = faultinject.NewInjector(cfg)
	f.inj.SetTargets(faultinject.TargetRange{
		Start: f.patsy.Placement.Base,
		Size:  f.patsy.Placement.Size(),
	})
	var err error
	f.baseline, err = snapshotTrusted(f.p.M, extra...)
	return err
}

// run runs the platform for slices chaosSlice steps, applying the
// injections due after each.
func (f *faultLoad) run(slices int) error {
	for i := 0; i < slices; i++ {
		if err := f.p.Run(chaosSlice); err != nil {
			return fmt.Errorf("cycle %d: %w", f.p.Cycles(), err)
		}
		if err := f.inj.Advance(f.p.M); err != nil {
			return err
		}
	}
	return nil
}

// check compares the protected memory against the baseline.
func (f *faultLoad) check() error { return f.baseline.check(f.p.M) }

// chaosNet dials faulty in-memory connections to the platform's
// attestation service. Only the first wrapFirst dials of each
// attestation are disturbed — every fault plan is fixed per connection
// at dial time, so no state is shared with a possibly-stranded earlier
// exchange and the transcript stays deterministic. A mutex serializes
// device-side exchanges (and acts as a barrier before the simulation
// resumes).
type chaosNet struct {
	srv     *remote.Server
	chain   *faultinject.RNG
	faulty  bool
	dialNum int
	fcs     []*faultinject.FaultyConn
	faults  []string
	mu      sync.Mutex
}

// wrapFirst is how many dials per attestation get a faulty link; later
// retries run clean, so bounded retry always converges.
const wrapFirst = 2

func (n *chaosNet) dial() (net.Conn, error) {
	devConn, verConn := net.Pipe()
	var dev net.Conn = devConn
	if n.faulty && n.dialNum < wrapFirst {
		fc := faultinject.WrapConn(devConn, faultinject.ConnConfig{
			Seed:      n.chain.Uint64(),
			MaxFaults: 2,
			Percent:   50,
		})
		n.fcs = append(n.fcs, fc)
		dev = fc
	}
	n.dialNum++
	go func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.srv.ServeOne(dev)
		devConn.Close()
	}()
	return verConn, nil
}

// settle waits until no device-side exchange is in flight (so the
// simulation never runs concurrently with a quote computation), then
// folds the finished connections' fault logs into the transcript and
// resets the per-attestation dial counter.
func (n *chaosNet) settle() {
	n.mu.Lock()
	n.mu.Unlock() //nolint:staticcheck // intentional barrier
	for _, fc := range n.fcs {
		n.faults = append(n.faults, fc.Faults()...)
	}
	n.fcs = n.fcs[:0]
	n.dialNum = 0
}

// trustedRanges are the address ranges that must stay bit-identical
// under any fault load: the IDT and the trusted component area.
var trustedRanges = [][2]uint32{
	{machine.IDTBase, machine.IDTBase + machine.NumIRQs*4},
	{trusted.IntMuxBase, trusted.TrustedEnd},
}

// trustedBaseline holds the address and value of every word that must
// stay bit-identical.
type trustedBaseline [][2]uint32

// snapshotTrusted captures the trusted ranges plus the extra spans.
func snapshotTrusted(m *machine.Machine, extra ...[2]uint32) (trustedBaseline, error) {
	var b trustedBaseline
	for _, r := range slices.Concat(trustedRanges, extra) {
		for a := r[0]; a < r[1]; a += 4 {
			v, err := m.RawRead32(a)
			if err != nil {
				return nil, err
			}
			b = append(b, [2]uint32{a, v})
		}
	}
	return b, nil
}

// check compares the protected words against the snapshot.
func (b trustedBaseline) check(m *machine.Machine) error {
	for _, w := range b {
		v, err := m.RawRead32(w[0])
		if err != nil {
			return err
		}
		if v != w[1] {
			return fmt.Errorf("protected word %#x corrupted: %#x != %#x", w[0], v, w[1])
		}
	}
	return nil
}

// runChaos is the chaos scenario: a platform under seeded fault
// injection must keep its security story intact. Three untrusted tasks
// run — a victim that nothing attacks directly, a patsy whose RAM the
// injector corrupts, and a generated rogue that probes the isolation
// boundary — while spurious IRQ storms hit the kernel and the
// attestation link drops, truncates and corrupts frames. classes
// selects the fault classes.
//
// It returns an error when any invariant breaks:
//
//   - the trusted regions (IDT, trusted component area) or the
//     victim's text, data and .bss change, checked every 500,000
//     cycles and at the end;
//   - the victim dies, stops progressing, or fails its final
//     attestation;
//   - the rogue is not restarted after its first fault, or the
//     restarted incarnation does not re-attest over the faulty link;
//   - once its restart budget is spent, the rogue's identity is not
//     condemned, or remote attestation of it does not fail with
//     ErrRemote;
//   - nothing was injected or the rogue was never restarted (the final
//     integrity check always runs, so the check count is never zero).
//
// The transcript — the rogue's probe, injection and supervisor logs,
// link faults, attempt, restart and retry counts — becomes the cell's
// notes, on failure too.
func runChaos(e *ScenarioEnv, classes faultinject.Class) error {
	// Derive every random stream from the one seed.
	master := faultinject.NewRNG(e.Seed)
	rogueRng := master.Split()
	injSeed := master.Uint64()
	connChain := master.Split()

	f, err := e.bootFaultLoad(victimSrc)
	if err != nil {
		return err
	}
	p, victim := e.P, f.task

	haveRogue := classes&faultinject.RogueTasks != 0
	var rogueIdentity sha1.Digest
	if haveRogue {
		src, probe := faultinject.RogueSource(rogueRng, "rogue", faultinject.RogueTargets{
			TrustedAddr: trusted.IntMuxBase,
			ForeignAddr: victim.Placement.BSSBase(),
		})
		rogue, id, err := e.load(src, 3)
		if err != nil {
			return fmt.Errorf("rogue: %w\n%s", err, src)
		}
		rogueIdentity = id
		e.Notef("rogue probe %s", probe)
		if err := p.Watch(rogue.ID); err != nil {
			return err
		}
	}

	// The victim never writes its text, data or .bss, so that span joins
	// the trusted baseline: a context banked at a forged SP would land
	// there.
	victimStatic := [2]uint32{victim.Placement.Base, victim.Placement.StackBase()}
	if err := f.arm(faultinject.Config{
		Seed:       injSeed,
		Classes:    classes,
		MeanPeriod: chaosMeanPeriod,
	}, victimStatic); err != nil {
		return err
	}
	if err := p.RegisterDeadline(victim.ID, 16*core.DefaultTickPeriod); err != nil {
		return err
	}

	srvOpts := remote.ServerOptions{Timeout: chaosIOTimeout}
	if e.Obs != nil {
		srvOpts.Obs, srvOpts.Cycles = e.Obs.Sink(), p.M.Cycles
	}
	cnet := &chaosNet{
		srv:    remote.NewServer(remote.ComponentsAttestor{C: p.C}, srvOpts),
		chain:  connChain,
		faulty: classes&faultinject.ConnFaults != 0,
	}
	oem := p.Provider("oem")
	client := remote.NewClient(oem.Verifier(), oem.Name(), remote.ClientOptions{Timeout: chaosIOTimeout})
	var retryCalls, retryAttempts, retryRefusals int
	attest := func(identity sha1.Digest, nonce uint64) (int, error) {
		_, attempts, err := client.AttestRetry(cnet.dial, identity, nonce)
		cnet.settle()
		retryCalls++
		retryAttempts += attempts
		if errors.Is(err, remote.ErrRemote) {
			retryRefusals++
		}
		return attempts, err
	}

	// Milestones: 0 = await restarted rogue (then re-attest it),
	// 1 = await quarantine (then attestation must fail), 2 = cooldown.
	stage := 0
	if !haveRogue {
		stage = 2
	}
	cooldownEnd := p.Cycles() + 3_000_000
	var victimMidActivations uint64
	nextIntegrity := p.Cycles() + 500_000
	var restartAttempts, victimAttempts, rogueRestarts, trustedChecks int
	// The transcript, written however the run ends, so a failing cell
	// reports how far it got.
	defer func() {
		for _, ev := range f.inj.Events() {
			e.Notef("inject @%d %s: %s", ev.Cycle, ev.Class, ev.Detail)
		}
		for _, ev := range p.Sup.Events() {
			e.Notef("sup @%d %s %s: %s", ev.Cycle, ev.Task, ev.What, ev.Detail)
		}
		e.Notef("link faults %q", cnet.faults)
		e.Notef("attempts restart=%d victim=%d; rogue restarts %d; trusted checks %d",
			restartAttempts, victimAttempts, rogueRestarts, trustedChecks)
		e.Notef("retries calls=%d attempts=%d refusals=%d", retryCalls, retryAttempts, retryRefusals)
	}()

	for p.Cycles() < chaosMaxCycles && stage < 3 {
		if err := f.run(1); err != nil {
			return err
		}
		if p.Cycles() >= nextIntegrity {
			if err := f.check(); err != nil {
				return err
			}
			trustedChecks++
			if victimMidActivations == 0 {
				victimMidActivations = victim.Activations
			}
			nextIntegrity += 500_000
		}

		if stage >= 2 {
			if p.Cycles() >= cooldownEnd {
				stage = 3
			}
			continue
		}
		st, ok := p.Sup.Status("rogue")
		if !ok {
			return errors.New("rogue not under supervision")
		}
		switch stage {
		case 0:
			if st.State == trusted.WatchHealthy && st.Restarts >= 1 {
				attempts, err := attest(rogueIdentity, 0xC0FFEE)
				if err != nil {
					return fmt.Errorf("restarted rogue failed re-attestation: %w", err)
				}
				restartAttempts = attempts
				stage = 1
			} else if st.State == trusted.WatchQuarantined {
				return errors.New("rogue quarantined before a restarted incarnation was observed")
			}
		case 1:
			if st.State == trusted.WatchQuarantined {
				rogueRestarts = st.Restarts
				if !p.C.Attest.Quarantined(rogueIdentity) {
					return errors.New("quarantined rogue not condemned in Attest")
				}
				if _, err := attest(rogueIdentity, 0xDEAD); !errors.Is(err, remote.ErrRemote) {
					//tytan:allow errwrap — the error value is the reported datum, may be nil
					return fmt.Errorf("attestation of quarantined identity = %v, want ErrRemote", err)
				}
				cooldownEnd = p.Cycles() + 500_000
				stage = 2
			}
		}
	}
	if stage < 3 {
		return fmt.Errorf("milestones incomplete at cycle bound: stage %d", stage)
	}

	// Final invariants: trusted regions intact, victim alive and
	// progressing, and still attestable over the (possibly faulty) link.
	if err := f.check(); err != nil {
		return err
	}
	trustedChecks++
	if !e.alive(victim.ID) {
		return errors.New("victim task died")
	}
	if victim.Activations <= victimMidActivations {
		return fmt.Errorf("victim stopped progressing: %d activations at mid, %d at end",
			victimMidActivations, victim.Activations)
	}
	if victimAttempts, err = attest(f.id, 0xF00D); err != nil {
		return fmt.Errorf("victim failed final attestation: %w", err)
	}

	switch {
	case classes&(faultinject.BitFlips|faultinject.IRQStorms) != 0 && len(f.inj.Events()) == 0:
		return errors.New("no faults injected")
	case haveRogue && rogueRestarts == 0:
		return errors.New("rogue never restarted before quarantine")
	}
	return nil
}
