package rtos

import (
	"fmt"

	"repro/internal/trace"
)

// Periodic-deadline monitoring. A real-time task registers its period;
// the scheduler then checks, at every tick, that the task was
// dispatched at least once in each period window, and stamps a typed
// deadline-miss event when it was not. This is the paper's real-time
// guarantee (§real-time: bounded latency, non-interference from the
// secure world) made machine-checkable: the analysis layer's SLO rule
// `deadline_miss == 0` turns the event stream into a verdict.
//
// Monitoring is pure observation — checks charge no simulated cycles
// and change no scheduling decisions, so registering deadlines keeps
// the cycle transcript byte-identical.

// deadlineWatch tracks one registered periodic deadline.
type deadlineWatch struct {
	period uint64
	nextAt uint64 // end of the current period window
	ran    bool   // dispatched at least once in the current window
	misses uint64
}

// RegisterDeadline declares that the task must be dispatched at least
// once every period cycles, starting from the current cycle. The
// scheduler verifies the deadline at each timer tick and emits a
// KindDeadlineMiss event (and counts a miss) for every window the task
// did not run in. Re-registering replaces the previous deadline.
func (k *Kernel) RegisterDeadline(id TaskID, period uint64) error {
	if period == 0 {
		return fmt.Errorf("rtos: deadline period must be positive")
	}
	t, ok := k.Task(id)
	if !ok {
		return ErrNoSuchTask
	}
	if t.State == StateDead {
		return ErrDeadTask
	}
	if k.deadlines == nil {
		k.deadlines = make(map[TaskID]*deadlineWatch)
	}
	k.deadlines[id] = &deadlineWatch{
		period: period,
		nextAt: k.M.Cycles() + period,
	}
	return nil
}

// DeadlineMisses returns the total number of missed deadline windows
// across all monitored tasks.
func (k *Kernel) DeadlineMisses() uint64 {
	var n uint64
	for _, w := range k.deadlines {
		n += w.misses
	}
	return n + k.deadlineMissesRetired
}

// TaskDeadlineMisses returns the miss count of one monitored task.
func (k *Kernel) TaskDeadlineMisses(id TaskID) uint64 {
	if w, ok := k.deadlines[id]; ok {
		return w.misses
	}
	return 0
}

// noteDispatch marks the dispatched task as having run in its current
// deadline window. Called from dispatch(); the nil-map guard keeps the
// unmonitored hot path to one comparison.
func (k *Kernel) noteDispatch(t *TCB) {
	if k.deadlines == nil {
		return
	}
	if w, ok := k.deadlines[t.ID]; ok {
		w.ran = true
	}
}

// checkDeadlines closes every deadline window that has elapsed,
// emitting a miss event per window the task did not run in. Iteration
// follows taskOrder so emission order — and with it the exported trace
// — is deterministic. Called from the tick handler; charges nothing.
func (k *Kernel) checkDeadlines() {
	if len(k.deadlines) == 0 {
		return
	}
	now := k.M.Cycles()
	for _, t := range k.taskOrder {
		w, ok := k.deadlines[t.ID]
		if !ok {
			continue
		}
		for now >= w.nextAt {
			if !w.ran {
				w.misses++
				if k.M.Obs != nil {
					k.M.Emit(trace.SubKernel, trace.KindDeadlineMiss, t.Name,
						trace.Num("id", uint64(t.ID)),
						trace.Num("deadline", w.nextAt),
						trace.Num("late", now-w.nextAt),
						trace.Num("period", w.period))
				}
			}
			w.ran = false
			w.nextAt += w.period
		}
	}
}

// retireDeadline drops the watch of an exiting task, folding its miss
// count into the retired total so DeadlineMisses stays monotonic.
func (k *Kernel) retireDeadline(t *TCB) {
	if w, ok := k.deadlines[t.ID]; ok {
		k.deadlineMissesRetired += w.misses
		delete(k.deadlines, t.ID)
	}
}
