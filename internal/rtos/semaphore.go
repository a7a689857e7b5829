package rtos

import "repro/internal/machine"

// Semaphore is a counting semaphore with task wakeup — the signaling
// primitive interrupt handlers and service tasks use to kick deferred
// work ("real-time queuing" and "delaying of processes" in the §4
// feature list both build on it in FreeRTOS).
type Semaphore struct {
	k       *Kernel
	name    string
	count   int
	max     int
	waiters []*TCB
}

// NewSemaphore creates a semaphore with the given initial count and
// ceiling (max ≤ 0 means unbounded).
func (k *Kernel) NewSemaphore(name string, initial, max int) *Semaphore {
	if initial < 0 {
		initial = 0
	}
	return &Semaphore{k: k, name: name, count: initial, max: max}
}

// Name returns the diagnostic name.
func (s *Semaphore) Name() string { return s.name }

// Count returns the available count.
func (s *Semaphore) Count() int { return s.count }

// Give increments the semaphore (up to the ceiling), waking the
// longest-waiting task if any. It reports whether the give was
// accepted.
func (s *Semaphore) Give() bool {
	s.k.M.Charge(machine.CostQueueOp)
	if len(s.waiters) > 0 {
		t := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.k.Unblock(t, EntryResumed)
		return true
	}
	if s.max > 0 && s.count >= s.max {
		return false
	}
	s.count++
	return true
}

// TryTake decrements without blocking; reports success.
func (s *Semaphore) TryTake() bool {
	s.k.M.Charge(machine.CostQueueOp)
	if s.count == 0 {
		return false
	}
	s.count--
	return true
}

// Take decrements the semaphore, blocking the current task when the
// count is zero. It reports whether the count was taken immediately
// (false means the task blocked and will resume once given).
func (s *Semaphore) Take() bool {
	if s.TryTake() {
		return true
	}
	cur := s.k.current
	if cur == nil {
		return false
	}
	s.waiters = append(s.waiters, cur)
	s.k.BlockCurrent()
	return false
}
