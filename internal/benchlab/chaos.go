package benchlab

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/remote"
	"repro/internal/sha1"
	"repro/internal/trusted"
)

// The chaos scenario: a platform under seeded fault injection must keep
// its security story intact. Three untrusted tasks run — a victim that
// nothing attacks directly, a patsy whose RAM the injector corrupts,
// and a generated rogue that probes the isolation boundary — while
// spurious IRQ storms hit the kernel and the attestation link drops,
// truncates and corrupts frames.
//
// Invariants checked (the run fails loudly if any breaks):
//
//   - trusted regions (IDT, trusted component area) are bit-identical
//     across the whole run;
//   - the victim keeps making progress and attests cleanly at the end;
//   - the rogue is restarted after its first fault and the restarted
//     incarnation re-attests over the faulty link;
//   - once its restart budget is spent, the rogue's identity is
//     quarantined and remote attestation of it authoritatively fails;
//   - the entire simulation is deterministic per seed: cycle counts,
//     injection logs and supervisor logs are identical across runs.

// chaosSlice is the run-loop granularity: faults are injected and
// milestones observed at these boundaries.
const chaosSlice = 20_000

// chaosIOTimeout bounds each host-side attestation exchange. Generous
// against slow CI hosts; dropped frames cost one timeout each.
const chaosIOTimeout = 120 * time.Millisecond

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

// ChaosConfig parameterizes one chaos run.
type ChaosConfig struct {
	// Seed drives every random choice of the run.
	Seed uint64
	// Classes selects the fault classes (0 = all).
	Classes faultinject.Class
	// MaxCycles bounds the run (0 = 25M); hitting the bound with
	// milestones outstanding is a failure.
	MaxCycles uint64
	// MeanPeriod is the injector's average cycle gap (0 = 120_000).
	MeanPeriod uint64
	// Observe enables the platform observability layer for the run; the
	// result's Obs handle then exports the trace, metrics and profile.
	// Event emission never charges simulated cycles, so the transcript
	// is identical either way.
	Observe bool
}

// ChaosResult is the deterministic transcript of a run. Two runs with
// equal configs must produce deeply equal results.
type ChaosResult struct {
	Seed    uint64
	Classes faultinject.Class
	// Cycles is the final simulated cycle count.
	Cycles uint64
	// InjEvents is the injector's audit trail.
	InjEvents []faultinject.Event
	// SupEvents is the supervisor's audit trail.
	SupEvents []trusted.SupEvent
	// ConnFaults lists the link disturbances applied, in order.
	ConnFaults []string
	// RestartAttempts / VictimAttempts are the AttestRetry attempt
	// counts for the restarted rogue and the final victim check.
	RestartAttempts int
	VictimAttempts  int
	// RogueRestarts is the rogue's restart count at quarantine.
	RogueRestarts int
	// TrustedChecks counts integrity verifications that passed.
	TrustedChecks int
	// RetryCalls/RetryAttempts/RetryRefusals are the verifier-side
	// retry totals across every attestation of the run.
	RetryCalls    uint64
	RetryAttempts uint64
	RetryRefusals uint64
	// WireQuotes/WireDenials count device-side wire exchanges (only
	// populated when ChaosConfig.Observe is set).
	WireQuotes  uint64
	WireDenials uint64
	// Obs is the observability handle when ChaosConfig.Observe was set.
	// It is a live view, not part of the deterministic transcript.
	Obs *core.Obs
}

// chaosNet dials faulty in-memory connections to the platform's
// attestation service. Only the first wrapFirst dials of each
// attestation are disturbed — every fault plan is fixed per connection
// at dial time, so no state is shared with a possibly-stranded earlier
// exchange and the transcript stays deterministic. A mutex serializes
// device-side exchanges (and acts as a barrier before the simulation
// resumes).
type chaosNet struct {
	att     remote.Attestor
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
	srv := remote.NewServer(n.att, remote.ServerOptions{Timeout: chaosIOTimeout})
	go func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		srv.ServeOne(dev)
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

// snapshotTrusted captures the protected ranges word by word.
func snapshotTrusted(m *machine.Machine) ([]uint32, error) {
	var out []uint32
	for _, r := range trustedRanges {
		for a := r[0]; a < r[1]; a += 4 {
			v, err := m.RawRead32(a)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// checkTrusted compares the current protected ranges against the boot
// snapshot.
func checkTrusted(m *machine.Machine, want []uint32) error {
	got, err := snapshotTrusted(m)
	if err != nil {
		return err
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("trusted region corrupted at word %d: %#x != %#x", i, got[i], want[i])
		}
	}
	return nil
}

// RunChaos executes one seeded chaos run and verifies every invariant.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	if cfg.Classes == 0 {
		cfg.Classes = faultinject.AllClasses
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 25_000_000
	}
	res := &ChaosResult{Seed: cfg.Seed, Classes: cfg.Classes}

	p, err := core.NewPlatform(core.Options{Provider: "oem"})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	if cfg.Observe {
		res.Obs = p.EnableObservability()
	}
	if _, err := p.EnableSupervision(trusted.SupervisorPolicy{
		MaxRestarts:  2,
		RestartDelay: 20_000,
		CheckPeriod:  2 * core.DefaultTickPeriod,
	}); err != nil {
		return nil, err
	}

	// Derive every random stream from the one seed.
	master := faultinject.NewRNG(cfg.Seed)
	rogueRng := master.Split()
	injSeed := master.Uint64()
	connChain := master.Split()

	victimIm, err := asm.Assemble(victimSrc)
	if err != nil {
		return nil, err
	}
	victim, victimID, err := p.LoadTaskSync(victimIm, core.Secure, 3)
	if err != nil {
		return nil, err
	}

	patsyIm, err := asm.Assemble(patsySrc)
	if err != nil {
		return nil, err
	}
	patsy, _, err := p.LoadTaskSync(patsyIm, core.Secure, 3)
	if err != nil {
		return nil, err
	}
	if err := p.Watch(patsy.ID); err != nil {
		return nil, err
	}

	haveRogue := cfg.Classes&faultinject.RogueTasks != 0
	var rogueIdentity = victimID // placeholder; reassigned below
	if haveRogue {
		src := faultinject.RogueSource(rogueRng, "rogue", faultinject.RogueTargets{
			TrustedAddr: trusted.IntMuxBase,
			ForeignAddr: victim.Placement.BSSBase(),
		})
		rogueIm, err := asm.Assemble(src)
		if err != nil {
			return nil, fmt.Errorf("rogue does not assemble: %w\n%s", err, src)
		}
		rogue, id, err := p.LoadTaskSync(rogueIm, core.Secure, 3)
		if err != nil {
			return nil, err
		}
		rogueIdentity = id
		if err := p.Watch(rogue.ID); err != nil {
			return nil, err
		}
	}

	period := cfg.MeanPeriod
	if period == 0 {
		period = 120_000
	}
	inj := faultinject.NewInjector(faultinject.Config{
		Seed:       injSeed,
		Classes:    cfg.Classes,
		MeanPeriod: period,
	})
	inj.SetTargets(faultinject.TargetRange{
		Start: patsy.Placement.Base,
		Size:  patsy.Placement.Size(),
	})

	baseline, err := snapshotTrusted(p.M)
	if err != nil {
		return nil, err
	}

	oem := p.Provider("oem")
	att := remote.Attestor(remote.ComponentsAttestor{C: p.C})
	var traced *remote.TracedAttestor
	if cfg.Observe {
		traced = &remote.TracedAttestor{Inner: att, Cycles: p.M.Cycles, Obs: res.Obs.Buf}
		att = traced
	}
	retryStats := &remote.RetryStats{}
	cnet := &chaosNet{
		att:    att,
		chain:  connChain,
		faulty: cfg.Classes&faultinject.ConnFaults != 0,
	}
	client := remote.NewClient(oem.Verifier(), oem.Name(), remote.ClientOptions{
		Attempts: 8,
		Backoff:  time.Millisecond,
		Timeout:  chaosIOTimeout,
		Sleep:    func(time.Duration) {},
		Stats:    retryStats,
	})
	attest := func(identity sha1.Digest, nonce uint64) (int, error) {
		_, attempts, err := client.AttestRetry(cnet.dial, identity, nonce)
		cnet.settle()
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

	for p.Cycles() < cfg.MaxCycles && stage < 3 {
		if err := p.Run(chaosSlice); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", p.Cycles(), err)
		}
		if err := inj.Advance(p.M); err != nil {
			return nil, err
		}
		if p.Cycles() >= nextIntegrity {
			if err := checkTrusted(p.M, baseline); err != nil {
				return nil, err
			}
			res.TrustedChecks++
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
			return nil, errors.New("rogue not under supervision")
		}
		switch stage {
		case 0:
			if st.State == trusted.WatchHealthy && st.Restarts >= 1 {
				attempts, err := attest(rogueIdentity, 0xC0FFEE)
				if err != nil {
					return nil, fmt.Errorf("restarted rogue failed re-attestation: %w", err)
				}
				res.RestartAttempts = attempts
				stage = 1
			} else if st.State == trusted.WatchQuarantined {
				return nil, errors.New("rogue quarantined before a restarted incarnation was observed")
			}
		case 1:
			if st.State == trusted.WatchQuarantined {
				res.RogueRestarts = st.Restarts
				if !p.C.Attest.Quarantined(rogueIdentity) {
					return nil, errors.New("quarantined rogue not condemned in Attest")
				}
				if _, err := attest(rogueIdentity, 0xDEAD); !errors.Is(err, remote.ErrRemote) {
				//tytan:allow errwrap — the error value is the reported datum, may be nil
					return nil, fmt.Errorf("attestation of quarantined identity = %v, want ErrRemote", err)
				}
				cooldownEnd = p.Cycles() + 500_000
				stage = 2
			}
		}
	}
	if stage < 3 {
		return nil, fmt.Errorf("milestones incomplete at cycle bound: stage %d", stage)
	}

	// Final invariants: trusted regions intact, victim alive and
	// progressing, and still attestable over the (possibly faulty) link.
	if err := checkTrusted(p.M, baseline); err != nil {
		return nil, err
	}
	res.TrustedChecks++
	if _, gone := p.K.ExitInfo(victim.ID); gone {
		return nil, errors.New("victim task died")
	}
	if victim.Activations <= victimMidActivations {
		return nil, fmt.Errorf("victim stopped progressing: %d activations at mid, %d at end",
			victimMidActivations, victim.Activations)
	}
	attempts, err := attest(victimID, 0xF00D)
	if err != nil {
		return nil, fmt.Errorf("victim failed final attestation: %w", err)
	}
	res.VictimAttempts = attempts

	res.Cycles = p.Cycles()
	res.InjEvents = inj.Events()
	res.SupEvents = p.Sup.Events()
	res.ConnFaults = cnet.faults
	res.RetryCalls, res.RetryAttempts, _, _, res.RetryRefusals = retryStats.Counts()
	if traced != nil {
		res.WireQuotes, res.WireDenials = traced.Counts()
	}
	return res, nil
}
