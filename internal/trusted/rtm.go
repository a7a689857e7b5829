package trusted

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/loader"
	"repro/internal/machine"
	"repro/internal/rtos"
	"repro/internal/sha1"
	"repro/internal/sverify"
	"repro/internal/telf"
)

// RTM is the Root of Trust for Measurement: it computes each task's
// identity idt — the hash digest of the task's code, static data and
// layout — and maintains "a list of the identities of all loaded tasks
// and their memory addresses" (§4) that the IPC proxy resolves
// receivers through.
//
// Measurement is *interruptible*: it proceeds one SHA-1 block per
// quantum, and the hash state survives pre-emption (requirement for
// real-time compliance, §3). Because a loaded task has been relocated,
// the RTM reverts the relocation fixups on each block before hashing,
// yielding a position-independent measurement: the same binary loaded
// at any address produces the same idt.
type RTM struct {
	m *machine.Machine

	byTrunc map[uint64]*RegistryEntry
	byTask  map[rtos.TaskID]*RegistryEntry

	jobs []*MeasureJob

	measured uint64 // completed measurements
}

// RegistryEntry records a loaded task's identity and location.
type RegistryEntry struct {
	Task      *rtos.TCB
	ID        sha1.Digest
	TruncID   uint64
	Placement loader.Placement
	Image     *telf.Image

	// Bounds carries the task's certified static resource bounds when
	// the verification gate ran at load time (nil otherwise). The
	// analyzer cross-checks measured bursts against it.
	Bounds *sverify.Bounds
}

// NewRTM creates the RTM.
func NewRTM(m *machine.Machine) *RTM {
	return &RTM{
		m:       m,
		byTrunc: make(map[uint64]*RegistryEntry),
		byTask:  make(map[rtos.TaskID]*RegistryEntry),
	}
}

// RTM errors.
var (
	ErrUnknownIdentity = errors.New("trusted: identity not in RTM registry")
	ErrNotMeasured     = errors.New("trusted: task has no measured identity")
)

// headerBytes encodes the position-independent layout header that is
// hashed before the sections: entry offset and section sizes. Including
// the layout binds the identity to the "initial stack layout" exactly
// as §4 describes.
func headerBytes(im *telf.Image) []byte {
	var h [20]byte
	binary.LittleEndian.PutUint32(h[0:], im.Entry)
	binary.LittleEndian.PutUint32(h[4:], uint32(len(im.Text)))
	binary.LittleEndian.PutUint32(h[8:], uint32(len(im.Data)))
	binary.LittleEndian.PutUint32(h[12:], im.BSSSize)
	binary.LittleEndian.PutUint32(h[16:], im.StackSize)
	return h[:]
}

// IdentityOfImage computes the expected identity of an image without
// loading it — what a remote verifier derives from the published binary
// to check attestation reports against.
func IdentityOfImage(im *telf.Image) sha1.Digest {
	s := sha1.New()
	s.Write(headerBytes(im))
	s.Write(im.Text)
	s.Write(im.Data)
	return s.Sum()
}

// MeasureJob is an in-progress, interruptible measurement of a loaded
// task. Each Step hashes at most one 64-byte block.
type MeasureJob struct {
	rtm   *RTM
	im    *telf.Image
	base  uint32
	state sha1.State
	off   uint32 // next byte offset into text‖data
	limit uint32
	begun bool
	done  bool
	id    sha1.Digest
	// Interruptions counts how many distinct Step calls advanced the
	// job — the evaluation's "number of interruptions of the RTM task".
	Interruptions uint64
	// reverted counts relocation fixups reverted while hashing.
	reverted int
	onDone   func(sha1.Digest)
	// buf is the scratch block readBlock fills; reused across Steps so
	// hashing a large image does not allocate per block.
	buf [sha1.BlockSize]byte
}

// NewMeasureJob prepares the measurement of the image loaded at base.
func (r *RTM) NewMeasureJob(im *telf.Image, base uint32, onDone func(sha1.Digest)) *MeasureJob {
	return &MeasureJob{
		rtm:   r,
		im:    im,
		base:  base,
		state: sha1.New(),
		limit: im.MeasuredSize(),
		onDone: func(d sha1.Digest) {
			r.measured++
			if onDone != nil {
				onDone(d)
			}
		},
	}
}

// Done reports completion.
func (j *MeasureJob) Done() bool { return j.done }

// Identity returns the digest after completion.
func (j *MeasureJob) Identity() (sha1.Digest, error) {
	if !j.done {
		return sha1.Digest{}, ErrNotMeasured
	}
	return j.id, nil
}

// Step advances the measurement by at most budget cycles and returns
// the cycles consumed. The measured task must be prevented from
// executing while the job runs (the loader keeps it unscheduled), which
// is what makes idt reliable despite interruptions (§3).
func (j *MeasureJob) Step(budget uint64) (used uint64, err error) {
	if j.done {
		return 0, nil
	}
	j.Interruptions++
	if !j.begun {
		j.begun = true
		// Hash state init + layout header + reversal bookkeeping.
		j.state.Write(headerBytes(j.im))
		used += machine.CostMeasureInit + machine.CostRevertFixed
		if used >= budget {
			return used, nil
		}
	}
	for j.off < j.limit {
		n := uint32(sha1.BlockSize)
		if j.off+n > j.limit {
			n = j.limit - j.off
		}
		block, rerr := j.readBlock(j.off, n)
		if rerr != nil {
			return used, rerr
		}
		nrev := loader.RevertInBlock(j.im, j.base, j.off, block)
		j.reverted += nrev
		if n == sha1.BlockSize && j.state.BufferedBytes() == 0 {
			j.state.WriteBlock(block)
		} else {
			j.state.Write(block)
		}
		j.off += n
		used += machine.CostMeasurePerBlock + uint64(nrev)*machine.CostRevertPerAddr
		if used >= budget {
			return used, nil
		}
	}
	j.id = j.state.Sum()
	j.done = true
	j.onDone(j.id)
	return used, nil
}

// Run drives the job to completion and returns the total cost.
func (j *MeasureJob) Run() (uint64, error) {
	var total uint64
	for !j.done {
		used, err := j.Step(1 << 30)
		total += used
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// readBlock reads n bytes of task memory through the checked bus in the
// RTM's protection context (its boot grant covers task regions): the
// whole-word prefix as one word transfer, any tail byte by byte.
func (j *MeasureJob) readBlock(off, n uint32) ([]byte, error) {
	block := j.buf[:n]
	var wbuf [sha1.BlockSize / 4]uint32
	words := wbuf[:n/4]
	var err error
	j.rtm.m.WithExecContext(RTMBase, func() {
		addr := j.base + off
		if err = j.rtm.m.ReadWords(addr, words); err != nil {
			return
		}
		for i, v := range words {
			binary.LittleEndian.PutUint32(block[4*i:], v)
		}
		for i := n &^ 3; i < n; i++ {
			var b byte
			b, err = j.rtm.m.Read8(addr + i)
			if err != nil {
				return
			}
			block[i] = b
		}
	})
	if err != nil {
		return nil, fmt.Errorf("trusted: rtm read at +%#x: %w", off, err)
	}
	return block, nil
}

// Register records a measured task in the identity registry. Only the
// RTM can modify identities — callers are the trusted loader path.
func (r *RTM) Register(t *rtos.TCB, im *telf.Image, p loader.Placement, id sha1.Digest) *RegistryEntry {
	e := &RegistryEntry{
		Task:      t,
		ID:        id,
		TruncID:   id.TruncatedID(),
		Placement: p,
		Image:     im,
	}
	r.byTrunc[e.TruncID] = e
	r.byTask[t.ID] = e
	r.m.Charge(machine.CostRegistryUpdate)
	return e
}

// Unregister removes a task from the registry (unload path). If
// another loaded task shares the same identity (two instances of the
// same binary), the truncated-identity index falls back to it, so IPC
// to that identity keeps working.
func (r *RTM) Unregister(t *rtos.TCB) {
	e, ok := r.byTask[t.ID]
	if !ok {
		return
	}
	delete(r.byTask, t.ID)
	if r.byTrunc[e.TruncID] == e {
		delete(r.byTrunc, e.TruncID)
		// Deterministic fallback: the surviving instance with the
		// lowest task ID becomes the canonical receiver.
		var best *RegistryEntry
		for _, other := range r.byTask {
			if other.TruncID != e.TruncID {
				continue
			}
			if best == nil || other.Task.ID < best.Task.ID {
				best = other
			}
		}
		if best != nil {
			r.byTrunc[e.TruncID] = best
		}
	}
	r.m.Charge(machine.CostRegistryUpdate)
}

// LookupByTruncID resolves a truncated identity to a registry entry,
// also returning how many entries were scanned (the IPC proxy charges a
// per-entry lookup cost; the registry is a list on the prototype).
func (r *RTM) LookupByTruncID(id uint64) (*RegistryEntry, int, error) {
	scanned := len(r.byTask)
	if e, ok := r.byTrunc[id]; ok {
		return e, scanned, nil
	}
	return nil, scanned, fmt.Errorf("%w: %#x", ErrUnknownIdentity, id)
}

// LookupByTask resolves a TCB to its registry entry.
func (r *RTM) LookupByTask(id rtos.TaskID) (*RegistryEntry, bool) {
	e, ok := r.byTask[id]
	return e, ok
}

// Entries returns the number of registered tasks.
func (r *RTM) Entries() int { return len(r.byTask) }
