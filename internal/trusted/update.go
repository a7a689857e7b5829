package trusted

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/hcrypto"
	"repro/internal/loader"
	"repro/internal/machine"
	"repro/internal/rtos"
	"repro/internal/sha1"
	"repro/internal/sverify"
	"repro/internal/telf"
	"repro/internal/trace"
)

// Updater is the secure update service: the field counterpart of the
// secure loader. Installation proves *what* runs; update must also
// prove the package is *authentic* (signature), *fresh* (monotonic
// counter in sealed storage — rollback protection), and that a fault at
// any point of the swap leaves the device on the old, still-attestable
// version rather than bricked between two.
//
// The decision pipeline per request:
//
//	verify    manifest decode, HMAC signature, target-name match
//	counter   quarantine check + sealed monotonic counter compare
//	stage     load the new image into fresh memory
//	install   install/protect/measure/register the new task, suspended,
//	          and seal its version counter under the new identity
//	stop      suspend the old task — downtime starts here — and re-seal
//	          the caller's migrate slots under the new identity
//	commit    resume new, carry the pending mailbox over, write the
//	          re-sealed slots and the counter, unload old
//
// then a fresh attestation quote over the new identity, so a remote
// verifier observes the new measurement, never a stale one. Everything
// up to install runs while the old version is still schedulable, so the
// downtime is stop..commit only: bounded bookkeeping plus one
// unseal/re-seal per migrated slot, independent of the image size. A
// fault in any phase unwinds via loader.Job.Abort or Unload and leaves
// the old task running; the counter and the migrated slots are written
// only after every step that can fail, so an unwound update never burns
// a version number and never strands sealed state under an identity
// that is not running.
//
// Every request ends in exactly one typed trace event: update-accepted,
// update-denied (with a reason attribute), or update-rolled-back (with
// the faulting phase) — the audit trail a verifier replays.
type Updater struct {
	k        *rtos.Kernel
	c        *Components
	ku       []byte
	provider string

	// FaultHook, when set, is called on entry to every phase and may
	// return an error to simulate a power failure or transient fault at
	// that exact point of the swap — the chaos harness's injection
	// point. A non-nil return aborts the update.
	FaultHook func(UpdatePhase) error

	counts UpdateCounts
}

// UpdatePhase names a point in the update pipeline, in execution order.
type UpdatePhase uint8

// Update pipeline phases.
const (
	UpdateVerify UpdatePhase = iota
	UpdateCounter
	UpdateStage
	UpdateInstall
	UpdateStop
	UpdateCommit

	numUpdatePhases
)

var updatePhaseNames = [numUpdatePhases]string{
	"verify", "counter", "stage", "install", "stop", "commit",
}

// String names the phase.
func (p UpdatePhase) String() string {
	if int(p) < len(updatePhaseNames) {
		return updatePhaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// UpdatePhases returns every pipeline phase in order — the chaos
// harness iterates it to inject a fault at each point of the swap.
func UpdatePhases() []UpdatePhase {
	out := make([]UpdatePhase, numUpdatePhases)
	for i := range out {
		out[i] = UpdatePhase(i)
	}
	return out
}

// Update errors. Denials (nothing changed) wrap ErrUpdateDenied;
// ErrUpdateAborted means a mid-swap fault was unwound and the old
// version runs on.
var (
	ErrUpdateDenied          = errors.New("trusted: update denied")
	ErrUpdateBadSignature    = fmt.Errorf("%w: bad signature", ErrUpdateDenied)
	ErrUpdateDowngrade       = fmt.Errorf("%w: version not fresher than sealed counter", ErrUpdateDenied)
	ErrUpdateCorrupt         = fmt.Errorf("%w: corrupt package", ErrUpdateDenied)
	ErrUpdateQuarantined     = fmt.Errorf("%w: identity quarantined", ErrUpdateDenied)
	ErrUpdateCounterTampered = fmt.Errorf("%w: version counter unreadable", ErrUpdateDenied)
	ErrUpdateBadTarget       = fmt.Errorf("%w: no such secure task", ErrUpdateDenied)
	ErrUpdateAborted         = errors.New("trusted: update aborted; previous version restored")
)

// Denial reason strings (trace attribute + counts key).
const (
	DenyBadSig        = "bad-sig"
	DenyDowngrade     = "downgrade"
	DenyCorrupt       = "corrupt"
	DenyQuarantined   = "quarantined"
	DenyCounterTamper = "counter-tamper"
	DenyBadTarget     = "bad-target"
)

// UpdateCounts is the updater's monotonic decision accounting.
type UpdateCounts struct {
	Accepted   uint64
	Denied     uint64
	RolledBack uint64
}

// Counts returns the decision counters since boot.
func (u *Updater) Counts() UpdateCounts { return u.counts }

// UpdateLabel is the KDF label for update-signing keys.
const UpdateLabel = "update"

// DeriveUpdateKey derives a provider's update-signing key Ku from the
// platform key — the same per-provider scheme as attestation keys, so
// each stakeholder signs (and can only update) its own tasks.
func DeriveUpdateKey(kp []byte, provider string) []byte {
	return hcrypto.DeriveKey(kp, UpdateLabel, []byte(provider))
}

// CounterSlot maps a task name to its sealed version-counter slot —
// deterministic, and far above the small slot numbers tasks use for
// their own data.
func CounterSlot(name string) uint32 {
	// FNV-1a over the name, folded into a dedicated slot window.
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return 0xFACE0000 | (h & 0xFFFF)
}

// UpdateReport describes an accepted update.
type UpdateReport struct {
	Task        string
	Old, New    rtos.TaskID
	OldIdentity sha1.Digest
	NewIdentity sha1.Digest
	FromVersion uint64 // sealed counter before the update (0 = none)
	ToVersion   uint64
	// DowntimeCycles is the window in which neither version was
	// schedulable: old suspend through new resume.
	DowntimeCycles uint64
	// MigratedSlots lists the storage slots re-sealed to the new
	// identity.
	MigratedSlots []uint32
	// Quote is the fresh post-update attestation over the new identity.
	Quote Quote
	Nonce uint64
}

// NewUpdater creates the update service for the given provider context,
// deriving Ku through the EA-MPU-guarded key path (the updater is a
// crypto-capable trusted component, like Storage and Attest).
func NewUpdater(k *rtos.Kernel, c *Components, provider string) (*Updater, error) {
	kp, err := readPlatformKey(k.M, StorageBase)
	if err != nil {
		return nil, err
	}
	k.M.Charge(machine.CostStorageKeyDerive)
	return &Updater{
		k:        k,
		c:        c,
		ku:       DeriveUpdateKey(kp, provider),
		provider: provider,
	}, nil
}

// deny accounts and reports a refusal; nothing has changed on-device.
func (u *Updater) deny(task, reason string, version uint64, err error) error {
	u.counts.Denied++
	if u.k.M.Obs != nil {
		u.k.M.Emit(trace.SubUpdate, trace.KindUpdateDenied, task,
			trace.Str("reason", reason), trace.Num("version", version))
	}
	return err
}

// rollBack accounts and reports an unwound mid-swap fault.
func (u *Updater) rollBack(task string, phase UpdatePhase, version uint64, cause error) error {
	u.counts.RolledBack++
	if u.k.M.Obs != nil {
		u.k.M.Emit(trace.SubUpdate, trace.KindUpdateRolledBack, task,
			trace.Str("phase", phase.String()), trace.Num("version", version))
	}
	return fmt.Errorf("%w (phase %s): %w", ErrUpdateAborted, phase, cause)
}

// enter runs the fault hook for a phase.
func (u *Updater) enter(phase UpdatePhase) error {
	if u.FaultHook == nil {
		return nil
	}
	return u.FaultHook(phase)
}

// Apply runs the full update pipeline: replace the secure task id with
// the signed package pkg, re-seal the listed storage slots from the old
// identity to the new one, then re-attest the result under nonce. The
// new task inherits the old one's priority and any undelivered mailbox
// message. Slot migration is the owner-authorized escape hatch: by
// construction the new binary has a new identity and could never unseal
// the old data itself. On a denial or an aborted swap the old task and
// its sealed state are untouched (and, if it was stopped, resumed) —
// Apply never leaves the device without a runnable version of the task.
func (u *Updater) Apply(id rtos.TaskID, pkg []byte, nonce uint64, migrate ...uint32) (*UpdateReport, error) {
	m := u.k.M

	old, ok := u.k.Task(id)
	if !ok || old.Kind != rtos.KindSecure {
		return nil, u.deny("?", DenyBadTarget, 0, ErrUpdateBadTarget)
	}
	oldEntry, ok := u.c.RTM.LookupByTask(id)
	if !ok {
		return nil, u.deny(old.Name, DenyBadTarget, 0, ErrUpdateBadTarget)
	}
	name := old.Name

	// --- verify ---------------------------------------------------
	if err := u.enter(UpdateVerify); err != nil {
		return nil, u.rollBack(name, UpdateVerify, 0, err)
	}
	blocks := uint64(len(pkg)+sha1.BlockSize-1) / sha1.BlockSize
	if blocks == 0 {
		blocks = 1
	}
	m.Charge(machine.CostUpdateVerifyBase + blocks*machine.CostUpdateVerifyPerBlock)
	signed, err := telf.DecodeSigned(pkg)
	if err != nil {
		return nil, u.deny(name, DenyCorrupt, 0, fmt.Errorf("%w: %w", ErrUpdateCorrupt, err))
	}
	version := signed.Manifest.TaskVersion
	if err := signed.Verify(u.ku); err != nil {
		return nil, u.deny(name, DenyBadSig, version, fmt.Errorf("%w: %w", ErrUpdateBadSignature, err))
	}
	im := signed.Image
	if im.Name != name {
		return nil, u.deny(name, DenyBadTarget, version,
			fmt.Errorf("%w: package is for %q", ErrUpdateBadTarget, im.Name))
	}
	var bounds *sverify.Bounds
	if u.c.Gate != nil {
		m.Charge(u.c.Gate.Cost(im))
		rep, err := u.c.Gate.Check(im)
		if err != nil {
			return nil, u.deny(name, DenyCorrupt, version, fmt.Errorf("%w: %w", ErrUpdateCorrupt, err))
		}
		bounds = rep.Bounds
	}
	newID := IdentityOfImage(im)

	// --- counter --------------------------------------------------
	if err := u.enter(UpdateCounter); err != nil {
		return nil, u.rollBack(name, UpdateCounter, version, err)
	}
	m.Charge(machine.CostUpdateCounter)
	if u.c.Attest.Quarantined(oldEntry.ID) || u.c.Attest.Quarantined(newID) {
		return nil, u.deny(name, DenyQuarantined, version, ErrUpdateQuarantined)
	}
	slot := CounterSlot(name)
	var current uint64
	switch cur, err := u.c.Storage.Load(old, slot); {
	case err == nil:
		if len(cur) != 8 {
			return nil, u.deny(name, DenyCounterTamper, version,
				fmt.Errorf("%w: %d-byte counter", ErrUpdateCounterTampered, len(cur)))
		}
		current = binary.LittleEndian.Uint64(cur)
	case errors.Is(err, ErrNoSlot):
		current = 0 // first update of this task
	default:
		// Tampered blob or identity mismatch: fail closed. Accepting
		// here would turn storage tampering into a downgrade vector.
		return nil, u.deny(name, DenyCounterTamper, version,
			fmt.Errorf("%w: %w", ErrUpdateCounterTampered, err))
	}
	if version <= current {
		return nil, u.deny(name, DenyDowngrade, version,
			fmt.Errorf("%w: have %d, offered %d", ErrUpdateDowngrade, current, version))
	}

	// --- stage (old task still running) ---------------------------
	if err := u.enter(UpdateStage); err != nil {
		return nil, u.rollBack(name, UpdateStage, version, err)
	}
	base, scanned, err := u.k.Alloc.Alloc(loader.PlacedSize(im))
	if err != nil {
		return nil, u.rollBack(name, UpdateStage, version, err)
	}
	m.Charge(machine.CostAllocBase + uint64(scanned)*machine.CostAllocPerRegion)
	job := loader.NewJob(m, im, base)
	// From here on a fault unwinds through abort: it removes whatever
	// of the new version exists and resumes the old one if it was
	// stopped. Nothing it undoes is visible outside the swap: the sealed
	// counter and slots are written only once nothing can fail.
	var newTCB *rtos.TCB
	stopped := false
	abort := func(phase UpdatePhase, err error) (*UpdateReport, error) {
		if newTCB != nil {
			// Unload funnels through the exit hooks, so the EA-MPU
			// rules, registry entry and memory all go with the task.
			u.k.Unload(newTCB.ID)
		} else {
			// Revert the load (which also invalidates any compiled code
			// over the extent) and free the memory.
			if !job.Aborted() {
				cost, _ := job.Abort()
				m.Charge(cost)
			}
			u.k.Alloc.Free(base)
		}
		if stopped {
			u.k.Resume(id)
		}
		return nil, u.rollBack(name, phase, version, err)
	}
	cost, err := job.Run()
	m.Charge(cost)
	if err != nil {
		return abort(UpdateStage, err)
	}

	// --- install (old task still running) -------------------------
	if err := u.enter(UpdateInstall); err != nil {
		return abort(UpdateInstall, err)
	}
	tcb, err := u.k.InstallTaskSuspended(name, rtos.KindSecure, old.Priority, job.Placement())
	if err != nil {
		return abort(UpdateInstall, err)
	}
	newTCB = tcb
	if _, err := u.c.Driver.ProtectTask(newTCB); err != nil {
		return abort(UpdateInstall, err)
	}
	mjob := u.c.RTM.NewMeasureJob(job.Placement().Image, base, nil)
	mcost, err := mjob.Run()
	m.Charge(mcost)
	if err != nil {
		return abort(UpdateInstall, err)
	}
	if measured, _ := mjob.Identity(); measured != newID {
		// The staged bytes do not hash to the verified image — RAM was
		// perturbed between stage and measure.
		return abort(UpdateInstall, fmt.Errorf("staged image measurement mismatch"))
	}
	newEntry := u.c.RTM.Register(newTCB, job.Placement().Image, job.Placement(), newID)
	newEntry.Bounds = bounds
	var enc [8]byte
	binary.LittleEndian.PutUint64(enc[:], version)
	counter, err := u.c.Storage.seal(newTCB, enc[:])
	if err != nil {
		return abort(UpdateInstall, err)
	}

	// --- stop ------------------------------------------------------
	if err := u.enter(UpdateStop); err != nil {
		return abort(UpdateStop, err)
	}
	if err := u.k.Suspend(id); err != nil {
		return abort(UpdateStop, err)
	}
	stopped = true
	downStart := m.Cycles()
	resealed := make([][]byte, len(migrate))
	for i, s := range migrate {
		pt, err := u.c.Storage.Load(old, s)
		if err == nil {
			resealed[i], err = u.c.Storage.seal(newTCB, pt)
		}
		if err != nil {
			return abort(UpdateStop, fmt.Errorf("migrating slot %d: %w", s, err))
		}
	}

	// --- commit ----------------------------------------------------
	if err := u.enter(UpdateCommit); err != nil {
		return abort(UpdateCommit, err)
	}
	m.Charge(machine.CostUpdateSwap)
	if err := u.k.Resume(newTCB.ID); err != nil {
		return abort(UpdateCommit, err)
	}
	// A failed transfer leaves the source mailbox intact: its flag is
	// cleared only after the copy.
	if err := u.c.Proxy.TransferMailbox(oldEntry, newEntry); err != nil {
		return abort(UpdateCommit, err)
	}
	// Nothing can fail from here on. The counter goes last, so a caller
	// listing its slot in migrate cannot carry an older version over.
	for i, s := range migrate {
		u.c.Storage.blobs[s] = resealed[i]
	}
	u.c.Storage.blobs[slot] = counter
	downtime := m.Cycles() - downStart
	u.k.Unload(id)

	// --- re-attest -------------------------------------------------
	// The verifier must observe the *new* measurement: quote it now,
	// under a fresh nonce, as part of the update itself.
	quote, err := u.c.Attest.QuoteTask(newTCB.ID, nonce)
	u.counts.Accepted++
	if u.k.M.Obs != nil {
		u.k.M.Emit(trace.SubUpdate, trace.KindUpdateAccepted, name,
			trace.Num("from", current), trace.Num("to", version),
			trace.Num("downtime", downtime), trace.Num("new-task", uint64(newTCB.ID)))
	}
	report := &UpdateReport{
		Task:           name,
		Old:            id,
		New:            newTCB.ID,
		OldIdentity:    oldEntry.ID,
		NewIdentity:    newID,
		FromVersion:    current,
		ToVersion:      version,
		DowntimeCycles: downtime,
		MigratedSlots:  append([]uint32(nil), migrate...),
		Quote:          quote,
		Nonce:          nonce,
	}
	if err != nil {
		return report, fmt.Errorf("trusted: update committed but re-attestation failed: %w", err)
	}
	return report, nil
}
