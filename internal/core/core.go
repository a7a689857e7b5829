// Package core is TyTAN's public façade: it assembles the simulated
// platform (machine, devices, RTOS, trusted components), boots it, and
// exposes the operations a system integrator uses — loading, unloading
// and suspending tasks at runtime, secure IPC, attestation and sealed
// storage — mirroring the architecture of Figure 1 in the paper.
//
// Two configurations exist:
//
//   - the TyTAN configuration (default): secure boot runs, the EA-MPU
//     enforces isolation, secure tasks are measured and attestable;
//   - the baseline configuration (Options.Baseline): the unmodified
//     FreeRTOS the paper's tables compare against.
//
// A minimal session:
//
//	p, _ := core.NewPlatform(core.Options{})
//	im, _ := asm.Assemble(taskSource)
//	t, _ := p.LoadTaskSync(im, core.Secure, 3)
//	p.Run(10 * core.DefaultTickPeriod)
//	fmt.Print(p.Output())
package core

import (
	"errors"
	"fmt"

	"repro/internal/loader"
	"repro/internal/machine"
	"repro/internal/rtos"
	"repro/internal/sha1"
	"repro/internal/sverify"
	"repro/internal/telf"
	"repro/internal/trusted"
)

// Task kinds re-exported for API convenience.
const (
	Normal = rtos.KindNormal
	Secure = rtos.KindSecure
)

// DefaultTickPeriod re-exports the kernel's 1.5 kHz tick.
const DefaultTickPeriod = rtos.DefaultTickPeriod

// Options configures platform construction.
type Options struct {
	// RAMSize in bytes (0 = 4 MiB).
	RAMSize uint32
	// PlatformKey is Kp; zero-length selects a fixed development key.
	PlatformKey []byte
	// Provider is the attestation-key derivation context.
	Provider string
	// Baseline selects the unmodified-FreeRTOS configuration: no secure
	// boot, no EA-MPU, baseline interrupt path.
	Baseline bool
	// EngineHistory bounds the engine actuator's command log
	// (0 = 4096).
	EngineHistory int
	// LoaderQuantum caps the loader service's work per dispatch in
	// cycles (0 = the default bounded quantum). The atomic-measurement
	// ablation sets it very high to reproduce the SMART/SPM-style
	// non-interruptible loading the paper argues against.
	LoaderQuantum uint64
	// Static lists tasks fixed at boot time. A platform booted with
	// static tasks refuses all runtime task management afterwards — the
	// TrustLite configuration model the paper contrasts against
	// ("TrustLite requires all software components to be loaded and
	// their isolation to be configured at boot time", §7).
	Static []StaticTask
	// StrictVerify arms the static pre-load verification gate at boot:
	// every load — sync, async, static — is verified before memory is
	// allocated or measured, and images with Error findings fail with
	// an error wrapping loader.ErrVerifyRejected (plus a verify-denied
	// trace event when observability is on). Requires the TyTAN
	// configuration (it is a trusted-layer policy); combined with
	// Baseline, NewPlatform fails with ErrBaselineOnly.
	StrictVerify bool
	// BoundsAdmission additionally arms the resource-bound admission
	// check at boot (implies StrictVerify): the loader refuses images
	// whose certified worst-case stack depth does not fit their stack
	// reservation, or whose worst-case burst exceeds a cycle budget
	// declared in CycleBudgets. TyTAN configuration only.
	BoundsAdmission bool
	// CycleBudgets maps image names to per-activation cycle budgets for
	// the bounds admission check. Images without an entry carry no
	// cycle constraint.
	CycleBudgets map[string]uint64
}

// StaticTask describes one boot-time task of the static configuration.
type StaticTask struct {
	Image *telf.Image
	Kind  rtos.TaskKind
	Prio  int
}

// DevKey is the development platform key used when Options.PlatformKey
// is empty.
var DevKey = []byte("tytan-dev-platform-key!!")[:machine.KeySize]

// Platform is a booted TyTAN (or baseline) system.
type Platform struct {
	M *machine.Machine
	K *rtos.Kernel
	// C holds the trusted components; nil in the baseline configuration.
	C *trusted.Components
	// Sup is the trusted supervisor; nil until EnableSupervision.
	Sup *trusted.Supervisor

	UART     *machine.UART
	Pedal    *machine.Sensor
	Radar    *machine.Sensor
	Engine   *machine.Engine
	KeyStore *machine.KeyStore
	NIC      *machine.NIC

	loader    *loaderService
	loaderTCB *rtos.TCB

	// updater is the secure update service; nil until EnableSecureUpdate.
	updater *trusted.Updater

	platformKey []byte
	provider    string
	staticOnly  bool

	// obsHandle is the exporter handle; nil until EnableObservability.
	obsHandle *Obs
}

// Platform errors.
var (
	ErrBaselineOnly = errors.New("core: operation unavailable in the baseline configuration")
	ErrLoadFailed   = errors.New("core: task load failed")
	// ErrStaticConfig is returned by runtime task management on a
	// statically configured (TrustLite-style) platform.
	ErrStaticConfig = errors.New("core: platform is statically configured; runtime task management disabled")
)

// NewPlatform builds and boots a platform.
func NewPlatform(opt Options) (*Platform, error) {
	if len(opt.PlatformKey) == 0 {
		opt.PlatformKey = DevKey
	}
	if opt.Provider == "" {
		opt.Provider = "default-provider"
	}
	if (opt.StrictVerify || opt.BoundsAdmission) && opt.Baseline {
		return nil, fmt.Errorf("core: verification gate: %w", ErrBaselineOnly)
	}
	if opt.EngineHistory == 0 {
		opt.EngineHistory = 4096
	}

	m := machine.New(opt.RAMSize)
	p := &Platform{
		M:           m,
		UART:        machine.NewUART(),
		KeyStore:    machine.NewKeyStore(opt.PlatformKey),
		platformKey: append([]byte(nil), opt.PlatformKey...),
		provider:    opt.Provider,
	}
	// The pedal and radar sensors sample once per tick.
	p.Pedal = machine.NewSensor("pedal", m.Cycles, DefaultTickPeriod, 0, 100)
	p.Radar = machine.NewSensor("radar", m.Cycles, DefaultTickPeriod, 5, 250)
	p.Engine = machine.NewEngine(m.Cycles, opt.EngineHistory)
	p.NIC = machine.NewNIC(m.Cycles)
	m.MapDevice(machine.PageUART, p.UART)
	m.MapDevice(machine.PageNIC, p.NIC)
	m.MapDevice(machine.PagePedal, p.Pedal)
	m.MapDevice(machine.PageRadar, p.Radar)
	m.MapDevice(machine.PageKeyStore, p.KeyStore)
	m.MapDevice(machine.PageEngine, p.Engine)

	k, err := rtos.NewKernel(m, rtos.Config{TyTAN: !opt.Baseline})
	if err != nil {
		return nil, err
	}
	p.K = k

	if !opt.Baseline {
		c, err := trusted.Boot(k, trusted.BootConfig{Provider: opt.Provider})
		if err != nil {
			return nil, err
		}
		p.C = c
	}
	if opt.StrictVerify || opt.BoundsAdmission {
		// Armed before the static tasks load so they are gated too.
		p.C.Gate = &loader.Gate{
			Cfg:     sverify.Config{RAMSize: m.RAMSize(), Syscalls: trusted.AllowedSyscalls()},
			Bounds:  opt.BoundsAdmission,
			Budgets: opt.CycleBudgets,
		}
	}

	p.loader = newLoaderService(p, opt.LoaderQuantum)
	// Priority 1 keeps the background loader below typical real-time
	// tasks.
	tcb, err := k.NewServiceTask("os-loader", 1, p.loader)
	if err != nil {
		return nil, err
	}
	p.loaderTCB = tcb

	// Boot-time tasks (both configurations may use them); once they are
	// loaded the platform is static-only.
	for i, st := range opt.Static {
		if _, _, err := p.LoadTaskSync(st.Image, st.Kind, st.Prio); err != nil {
			return nil, fmt.Errorf("core: static task %d: %w", i, err)
		}
	}
	p.staticOnly = len(opt.Static) > 0

	k.StartTick()
	return p, nil
}

// Close releases the platform's simulation resources (recycling the
// machine's RAM buffer for future platforms). The platform must not be
// used afterwards. Closing is optional; an un-closed platform is
// collected by the GC. The evaluation harness closes platforms because
// it builds one per measurement and the RAM allocations otherwise
// dominate host time.
func (p *Platform) Close() { p.M.Release() }

// Baseline reports whether the platform runs the unmodified-FreeRTOS
// configuration.
func (p *Platform) Baseline() bool { return p.C == nil }

// Run advances the simulation by the given number of cycles.
func (p *Platform) Run(cycles uint64) error {
	return p.K.RunUntil(p.M.Cycles() + cycles)
}

// Cycles returns the platform's cycle counter.
func (p *Platform) Cycles() uint64 { return p.M.Cycles() }

// RegisterDeadline declares a periodic deadline for a task: the kernel
// verifies at every tick that the task was dispatched in each period
// window and stamps a deadline-miss event otherwise (see
// internal/rtos/deadline.go). Monitoring charges no cycles.
func (p *Platform) RegisterDeadline(id rtos.TaskID, period uint64) error {
	return p.K.RegisterDeadline(id, period)
}

// Output returns everything tasks printed to the UART.
func (p *Platform) Output() string { return p.UART.String() }

// LoadTaskSync loads a task through the complete TyTAN sequence —
// allocate, load+relocate, prepare stack, configure EA-MPU, measure
// (secure tasks), schedule — in one non-interruptible call, returning
// the task and its measured identity. Benchmarks measuring raw creation
// cost use this; real-time systems use LoadTaskAsync.
func (p *Platform) LoadTaskSync(im *telf.Image, kind rtos.TaskKind, prio int) (*rtos.TCB, sha1.Digest, error) {
	if p.staticOnly {
		return nil, sha1.Digest{}, ErrStaticConfig
	}
	req := newLoadRequest(im, kind, prio)
	if err := p.loader.runSync(req); err != nil {
		return nil, sha1.Digest{}, err
	}
	return req.tcb, req.identity, nil
}

// LoadTaskAsync enqueues a load for the background loader service and
// returns immediately. The load proceeds in bounded micro-steps
// interleaved with task execution — the property that keeps the 1.5 kHz
// control tasks of Table 1 on deadline while a 27.8 ms load is in
// flight. Observe completion through the returned request.
func (p *Platform) LoadTaskAsync(im *telf.Image, kind rtos.TaskKind, prio int) *LoadRequest {
	return p.loadAsync(im, kind, prio, nil)
}

// loadAsync is LoadTaskAsync with a done callback (nil for none), called
// once when the load ends.
func (p *Platform) loadAsync(im *telf.Image, kind rtos.TaskKind, prio int, done func(*rtos.TCB, error)) *LoadRequest {
	req := newLoadRequest(im, kind, prio)
	req.done = done
	if p.staticOnly {
		req.phase = LoadFailed
		req.err = ErrStaticConfig
		req.end()
		return req
	}
	p.loader.enqueue(req)
	p.K.WakeAt(p.loaderTCB, p.M.Cycles())
	return req
}

// Unload removes a task at runtime, releasing its memory, EA-MPU rules
// and registry entry.
func (p *Platform) Unload(id rtos.TaskID) error {
	if p.staticOnly {
		return ErrStaticConfig
	}
	return p.K.Unload(id)
}

// Identity returns the measured identity of a loaded secure task.
func (p *Platform) Identity(id rtos.TaskID) (sha1.Digest, error) {
	if p.C == nil {
		return sha1.Digest{}, ErrBaselineOnly
	}
	e, ok := p.C.RTM.LookupByTask(id)
	if !ok {
		return sha1.Digest{}, trusted.ErrNotMeasured
	}
	return e.ID, nil
}

// ProviderHandle scopes attestation to one stakeholder: quotes MACed
// under that provider's individual attestation key and the matching
// verifier. Obtain one from Platform.Provider.
type ProviderHandle struct {
	p    *Platform
	name string
}

// Provider returns the attestation handle for the named stakeholder
// (multi-stakeholder attestation, §2/§3). An empty name selects the
// platform's default provider. The handle is valid on a baseline
// platform too — its Verifier works, but Quote fails with
// ErrBaselineOnly.
func (p *Platform) Provider(name string) ProviderHandle {
	if name == "" {
		name = p.provider
	}
	return ProviderHandle{p: p, name: name}
}

// Name returns the provider this handle is scoped to.
func (h ProviderHandle) Name() string { return h.name }

// Quote produces a remote attestation report for a loaded secure task,
// MACed under this provider's attestation key.
func (h ProviderHandle) Quote(id rtos.TaskID, nonce uint64) (trusted.Quote, error) {
	if h.p.C == nil {
		return trusted.Quote{}, ErrBaselineOnly
	}
	if h.name == h.p.provider {
		// The default provider's key is the component's boot-derived Ka;
		// quoting through it skips the per-provider derivation charge.
		return h.p.C.Attest.QuoteTask(id, nonce)
	}
	return h.p.C.Attest.QuoteTaskForProvider(h.name, id, nonce)
}

// Verifier returns the remote party holding this provider's
// attestation key (provisioned out of band from Kp).
func (h ProviderHandle) Verifier() *trusted.Verifier {
	return trusted.NewVerifier(h.p.platformKey, h.name)
}

// Seal stores data in the secure-storage slot on behalf of task id.
func (p *Platform) Seal(id rtos.TaskID, slot uint32, data []byte) error {
	if p.C == nil {
		return ErrBaselineOnly
	}
	t, ok := p.K.Task(id)
	if !ok {
		return rtos.ErrNoSuchTask
	}
	return p.C.Storage.Store(t, slot, data)
}

// Unseal retrieves sealed data on behalf of task id.
func (p *Platform) Unseal(id rtos.TaskID, slot uint32) ([]byte, error) {
	if p.C == nil {
		return nil, ErrBaselineOnly
	}
	t, ok := p.K.Task(id)
	if !ok {
		return nil, rtos.ErrNoSuchTask
	}
	return p.C.Storage.Load(t, slot)
}

// figure1 is the paper's architecture diagram, as booted here.
const figure1 = `
  ┌──────────────────────────── untrusted ───────────────────────────┐
  │  Task A   Task B  (normal)     │   OS (FreeRTOS-like kernel)     │
  ├──────────────────────────────── ─ ─ ─ ──────────────────────────┤
  │  Task C   Task D  (secure, isolated from each other AND the OS)  │
  ├───────────────────────────── trusted ────────────────────────────┤
  │  EA-MPU driver │ Int Mux │ IPC proxy │ RTM │ Attest │ Storage    │
  ├───────────────────────────── hardware ───────────────────────────┤
  │  CPU ── EA-MPU ── memory ── MMIO(timer, uart, sensors, Kp, nic)  │
  └───────────────────────────────────────────────────────────────────┘
`

// Describe prints the component map of the booted platform (the textual
// Figure 1) to the returned string.
func (p *Platform) Describe() string {
	cfg := "TyTAN"
	if p.Baseline() {
		cfg = "baseline FreeRTOS"
	}
	s := fmt.Sprintf("configuration: %s\nRAM: %d KiB at %#x\ntick: %d cycles (%.1f kHz at %d MHz)\n",
		cfg, p.M.RAMSize()>>10, machine.RAMBase,
		DefaultTickPeriod, float64(machine.ClockHz)/DefaultTickPeriod/1000, machine.ClockHz/1_000_000)
	if p.C != nil {
		s += fmt.Sprintf("trusted components: EA-MPU driver, Int Mux, IPC proxy, RTM, Remote Attest, Secure Storage\n"+
			"boot report: %x\nEA-MPU slots in use: %d/%d\n",
			p.C.BootReport, p.M.MPU.UsedSlots(), 18)
		s += figure1
	}
	if c := p.Cycles(); c > 0 {
		s += fmt.Sprintf("cycles: %d, CPU utilization: %.1f %%\n", c, p.K.Utilization()*100)
	}
	return s
}
