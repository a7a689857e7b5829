package rtos

import (
	"errors"

	"repro/internal/machine"
)

// Queue is a fixed-capacity FIFO of 32-bit items with task wakeup on
// send — FreeRTOS's "real-time queuing" primitive (§4 feature list).
// All operations are constant-bounded; senders never block (a full
// queue rejects the item, the embedded-systems convention for
// lossy telemetry), receivers may block.
type Queue struct {
	k        *Kernel
	name     string
	items    []uint32
	capacity int
	waiters  []*TCB
	drops    uint64
}

// Queue errors.
var ErrQueueCapacity = errors.New("rtos: queue capacity must be positive")

// NewQueue creates a queue with the given capacity.
func (k *Kernel) NewQueue(name string, capacity int) (*Queue, error) {
	if capacity <= 0 {
		return nil, ErrQueueCapacity
	}
	return &Queue{k: k, name: name, capacity: capacity}, nil
}

// Name returns the queue's diagnostic name.
func (q *Queue) Name() string { return q.name }

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Drops returns how many sends were rejected by a full queue.
func (q *Queue) Drops() uint64 { return q.drops }

// Send enqueues v. It reports false (and counts a drop) if the queue is
// full. If a task is blocked on Receive, it is made ready.
func (q *Queue) Send(v uint32) bool {
	q.k.M.Charge(machine.CostQueueOp)
	if len(q.items) >= q.capacity {
		q.drops++
		return false
	}
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		t := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.k.Unblock(t, EntryResumed)
	}
	return true
}

// Receive dequeues the oldest item, reporting false if empty.
func (q *Queue) Receive() (uint32, bool) {
	q.k.M.Charge(machine.CostQueueOp)
	if len(q.items) == 0 {
		return 0, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// ReceiveOrBlock dequeues an item; if the queue is empty it blocks the
// current task until a Send arrives (used by service tasks that drain
// work queues).
func (q *Queue) ReceiveOrBlock() (uint32, bool) {
	if v, ok := q.Receive(); ok {
		return v, true
	}
	cur := q.k.current
	if cur == nil {
		return 0, false
	}
	q.waiters = append(q.waiters, cur)
	q.k.BlockCurrent()
	return 0, false
}
