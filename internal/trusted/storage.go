package trusted

import (
	"errors"
	"fmt"

	"repro/internal/hcrypto"
	"repro/internal/machine"
	"repro/internal/rtos"
	"repro/internal/sha1"
)

// Storage is the secure storage task (§3 "Secure storage"): everything
// a task stores is encrypted-and-MACed under its task key
// Kt = HMAC(idt ‖ Kp). Because idt enters the key, data sealed by one
// task can only ever be unsealed by a task with the *same measured
// binary* — an update that changes a single byte of code changes idt
// and loses access, exactly the binding the paper describes.
//
// Tasks reach the storage task over secure IPC, which identifies the
// requester; the native API takes the requesting TCB and resolves its
// identity through the RTM registry for the same effect.
type Storage struct {
	m   *machine.Machine
	rtm *RTM
	kp  []byte

	// blobs is the backing store, modeling the device's flash: slot key
	// → sealed blob. Deliberately *not* indexed by task: any task may
	// ask for any slot, and the seal alone decides whether unsealing
	// succeeds.
	blobs  map[uint32][]byte
	nonces uint64
}

// Storage errors.
var (
	ErrNoSlot = errors.New("trusted: storage slot empty")
	// ErrSealDenied covers both tampered blobs and identity mismatches —
	// deliberately indistinguishable to the caller.
	ErrSealDenied = errors.New("trusted: unseal failed")
)

// NewStorage creates the secure storage component.
func NewStorage(m *machine.Machine, rtm *RTM) (*Storage, error) {
	kp, err := readPlatformKey(m, StorageBase)
	if err != nil {
		return nil, err
	}
	return &Storage{m: m, rtm: rtm, kp: kp, blobs: make(map[uint32][]byte)}, nil
}

// taskKey derives Kt for the requesting task.
func (s *Storage) taskKey(t *rtos.TCB) ([]byte, sha1.Digest, error) {
	e, ok := s.rtm.LookupByTask(t.ID)
	if !ok {
		return nil, sha1.Digest{}, ErrUnknownIdentity
	}
	s.m.Charge(machine.CostStorageKeyDerive)
	return hcrypto.TaskKey(s.kp, e.ID), e.ID, nil
}

// sealCost charges the per-block encrypt-and-MAC cost.
func (s *Storage) sealCost(n int) {
	blocks := uint64(n+sha1.BlockSize-1) / sha1.BlockSize
	if blocks == 0 {
		blocks = 1
	}
	s.m.Charge(machine.CostStorageLookup + blocks*machine.CostStoragePerBlock)
}

// Store seals data under the requesting task's key into slot.
func (s *Storage) Store(t *rtos.TCB, slot uint32, data []byte) error {
	blob, err := s.seal(t, data)
	if err != nil {
		return err
	}
	s.blobs[slot] = blob
	return nil
}

// seal encrypts-and-MACs data under t's task key without writing any
// slot. The updater seals the new version's state ahead of the swap and
// writes the blobs only once nothing can fail any more.
func (s *Storage) seal(t *rtos.TCB, data []byte) ([]byte, error) {
	kt, _, err := s.taskKey(t)
	if err != nil {
		return nil, err
	}
	s.sealCost(len(data))
	s.nonces++
	return hcrypto.Seal(kt, s.nonces, data), nil
}

// Load unseals slot for the requesting task. A task whose identity
// differs from the sealer's — or a blob tampered with at rest — yields
// ErrSealDenied.
func (s *Storage) Load(t *rtos.TCB, slot uint32) ([]byte, error) {
	kt, _, err := s.taskKey(t)
	if err != nil {
		return nil, err
	}
	blob, ok := s.blobs[slot]
	if !ok {
		return nil, fmt.Errorf("%w: slot %d", ErrNoSlot, slot)
	}
	s.sealCost(len(blob))
	pt, err := hcrypto.Unseal(kt, blob)
	if err != nil {
		return nil, ErrSealDenied
	}
	return pt, nil
}

// TamperSlot flips a bit in a stored blob — fault-injection hook for
// tests and the security demo; returns false if the slot is empty.
func (s *Storage) TamperSlot(slot uint32) bool {
	b, ok := s.blobs[slot]
	if !ok || len(b) == 0 {
		return false
	}
	b[len(b)/2] ^= 0x01
	return true
}
