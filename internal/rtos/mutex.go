package rtos

import (
	"errors"

	"repro/internal/machine"
	"repro/internal/trace"
)

// Mutex is a kernel mutex with priority inheritance — the mechanism
// real-time kernels (FreeRTOS included) use to bound priority
// inversion: while a low-priority task holds a mutex a high-priority
// task wants, the holder temporarily runs at the waiter's priority, so
// a medium-priority task cannot starve the critical section.
//
// The kernel is single-threaded by construction (the simulation owns
// all concurrency), so the mutex bounds *scheduling* interactions, not
// data races.
type Mutex struct {
	k       *Kernel
	name    string
	holder  *TCB
	waiters []*TCB
	// basePriority is the holder's priority before inheritance.
	basePriority int
	inherits     uint64
}

// Mutex errors.
var (
	ErrNotHolder = errors.New("rtos: unlock by non-holder")
	ErrHeld      = errors.New("rtos: mutex already held")
)

// NewMutex creates a mutex.
func (k *Kernel) NewMutex(name string) *Mutex {
	return &Mutex{k: k, name: name}
}

// Name returns the diagnostic name.
func (m *Mutex) Name() string { return m.name }

// Holder returns the current owner, if any.
func (m *Mutex) Holder() *TCB { return m.holder }

// Inherits returns how many times priority inheritance engaged.
func (m *Mutex) Inherits() uint64 { return m.inherits }

// TryLock acquires the mutex for t without blocking. It reports
// whether the lock was taken.
func (m *Mutex) TryLock(t *TCB) bool {
	m.k.M.Charge(machine.CostQueueOp)
	if m.holder != nil {
		return false
	}
	m.holder = t
	m.basePriority = t.Priority
	return true
}

// Lock acquires the mutex for the current task, blocking it if the
// mutex is held. While blocked, the holder inherits the waiter's
// priority if higher.
func (m *Mutex) Lock() (acquired bool, err error) {
	cur := m.k.current
	if cur == nil {
		return false, errors.New("rtos: Lock outside task context")
	}
	if m.TryLock(cur) {
		return true, nil
	}
	if m.holder == cur {
		return false, ErrHeld
	}
	// Priority inheritance: boost the holder to the waiter's priority.
	if cur.Priority > m.holder.Priority {
		m.boostHolder(cur.Priority)
	}
	m.waiters = append(m.waiters, cur)
	m.k.BlockCurrent()
	return false, nil
}

// boostHolder raises the holder's effective priority, re-queueing it if
// it sits on a ready list.
func (m *Mutex) boostHolder(prio int) {
	h := m.holder
	m.inherits++
	m.k.removeFromReady(h)
	wasReady := h.State == StateReady
	h.Priority = prio
	if wasReady {
		m.k.enqueue(h)
	}
	if m.k.M.Obs != nil {
		m.k.M.Emit(trace.SubKernel, trace.KindMutex, m.name,
			trace.Str("event", "priority-inherited"), trace.Num("prio", uint64(prio)))
	}
}

// Unlock releases the mutex held by t, restoring t's base priority and
// handing the lock to the longest-waiting task (which becomes ready
// with the lock already held).
func (m *Mutex) Unlock(t *TCB) error {
	m.k.M.Charge(machine.CostQueueOp)
	if m.holder != t {
		return ErrNotHolder
	}
	// Drop any inherited priority.
	if t.Priority != m.basePriority {
		m.k.removeFromReady(t)
		wasReady := t.State == StateReady
		t.Priority = m.basePriority
		if wasReady {
			m.k.enqueue(t)
		}
	}
	if len(m.waiters) == 0 {
		m.holder = nil
		return nil
	}
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.holder = next
	m.basePriority = next.Priority
	m.k.Unblock(next, EntryResumed)
	return nil
}
