package rtos

import (
	"repro/internal/machine"
	"repro/internal/trace"
)

// The scheduler: priority-based pre-emptive with round-robin within a
// priority level, driven by the timer tick, as required by the paper's
// real-time feature list (§4): multi-tasking, priority-based
// pre-emptive scheduling, bounded primitives, real-time clock, alarms
// and time-outs, queuing, and delaying of processes.

// enqueue appends t to its priority's ready list.
func (k *Kernel) enqueue(t *TCB) {
	t.State = StateReady
	k.ready[t.Priority] = append(k.ready[t.Priority], t)
}

// dequeueHighest pops the first task of the highest non-empty priority.
func (k *Kernel) dequeueHighest() *TCB {
	for p := NumPriorities - 1; p >= 0; p-- {
		q := k.ready[p]
		if len(q) == 0 {
			continue
		}
		t := q[0]
		copy(q, q[1:])
		k.ready[p] = q[:len(q)-1]
		return t
	}
	return nil
}

// removeFromReady removes t from the ready lists if present.
func (k *Kernel) removeFromReady(t *TCB) {
	q := k.ready[t.Priority]
	for i, x := range q {
		if x == t {
			k.ready[t.Priority] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// wakeDelayed makes delayed tasks whose deadline passed ready.
func (k *Kernel) wakeDelayed() {
	now := k.M.Cycles()
	for _, t := range k.taskOrder {
		if t.State == StateBlocked && t.wakeAt != 0 && t.wakeAt <= now {
			t.wakeAt = 0
			t.EntryInfo = EntryResumed
			k.enqueue(t)
		}
	}
}

// nextEventCycle returns the next cycle at which something is scheduled
// to happen: the timer tick or a delayed task's wake. Returns 0 if
// nothing is pending.
func (k *Kernel) nextEventCycle() uint64 {
	var next uint64
	consider := func(c uint64) {
		if c != 0 && (next == 0 || c < next) {
			next = c
		}
	}
	consider(k.Timer.NextFire())
	for _, t := range k.taskOrder {
		if t.State == StateBlocked && t.wakeAt != 0 {
			consider(t.wakeAt)
		}
	}
	return next
}

// idleAdvance advances simulated time to the next event (bounded by
// limit). It reports whether there was anything to advance to.
func (k *Kernel) idleAdvance(limit uint64) bool {
	next := k.nextEventCycle()
	if next == 0 {
		return false // nothing will ever happen again
	}
	if next > limit {
		next = limit
	}
	if now := k.M.Cycles(); next > now {
		k.M.Charge(next - now)
		k.idleCycles += next - now
	}
	return true
}

// tick is the timer interrupt handler body: bookkeeping plus the
// periodic-deadline check. Delay wakeups are handled in the run loop so
// that they also work with the tick disabled.
func (k *Kernel) tick() {
	k.ticks++
	k.M.Charge(machine.CostTick)
	k.checkDeadlines()
}

// serviceInterrupt delivers the highest-priority pending interrupt:
// exception entry, context save of an interrupted ISA task (see
// bankContext), and the handler body.
func (k *Kernel) serviceInterrupt() {
	line, ok := k.M.PendingIRQ()
	if !ok {
		return
	}
	cur := k.current
	k.M.Charge(machine.CostHWException)
	k.M.SetInterruptsEnabled(false)
	k.bankContext()
	if cur != nil && cur.State == StateRunning {
		cur.EntryInfo = EntryResumed
		// A service picked at a RunUntil limit was readied with work
		// it has not done yet, so it goes back on the ready list too.
		k.enqueue(cur)
		k.preempted++
	}
	k.current = nil

	raised := k.M.RaisedAt(line)
	k.M.AckIRQ(line)
	if line == machine.IRQTimer {
		k.tick()
	}
	var lat uint64
	if now := k.M.Cycles(); now >= raised {
		lat = now - raised
		k.irqLatencySum += lat
		k.irqLatencyN++
		if lat > k.irqLatencyMax {
			k.irqLatencyMax = lat
		}
	}
	if k.M.Obs != nil {
		kind := trace.KindIRQ
		if line == machine.IRQTimer {
			kind = trace.KindTick
		}
		k.M.Emit(trace.SubKernel, kind, "", trace.Num("line", uint64(line)), trace.Num("latency", lat))
	}
	k.M.SetInterruptsEnabled(true)
}

// RunUntil drives the kernel until the machine's cycle counter reaches
// limit, all tasks are dead, or (with no tick running) nothing can make
// progress. It is the kernel's "main" — the simulated CPU alternates
// between task execution and kernel paths exactly as the hardware
// would. A task's faults, a context frame its SP cannot hold included,
// end in typed exits, never in an error.
func (k *Kernel) RunUntil(limit uint64) error {
	for k.M.Cycles() < limit {
		if k.M.InterruptDeliverable() {
			k.serviceInterrupt()
			continue
		}
		k.wakeDelayed()
		if k.current == nil {
			t := k.dequeueHighest()
			if t == nil {
				if !k.idleAdvance(limit) {
					return nil // nothing will ever happen again
				}
				continue
			}
			k.M.Charge(machine.CostSchedulerPick)
			k.current = t
		}
		k.dispatch(limit)
	}
	return nil
}

// Quiesce parks the current task (saving its context) so that the
// machine state is self-consistent between RunUntil calls.
func (k *Kernel) Quiesce() {
	if k.current == nil {
		return
	}
	t := k.current
	if t.State == StateRunning {
		k.bankContext()
		if t.State != StateDead {
			t.EntryInfo = EntryResumed
			k.enqueue(t)
		}
	}
	k.current = nil
}

// dispatch runs the current task until it blocks, exits, is pre-empted
// or the limit is reached.
func (k *Kernel) dispatch(limit uint64) {
	t := k.current
	t.State = StateRunning
	t.Activations++
	k.switches++
	k.noteDispatch(t)
	if k.M.Obs != nil {
		k.M.Emit(trace.SubKernel, trace.KindTaskSwitch, t.Name,
			trace.Num("id", uint64(t.ID)), trace.Num("prio", uint64(t.Priority)))
	}
	now := k.M.Cycles()
	if now >= limit {
		return
	}
	budget := limit - now

	if !t.IsISA() {
		used, wake := t.Service.Step(k, t, budget)
		k.M.Charge(used)
		t.CPUCycles += used
		if k.current == t { // may have been pre-empted/retargeted
			k.current = nil
			if wake != 0 && wake <= k.M.Cycles() {
				k.enqueue(t)
			} else {
				t.State = StateBlocked
				t.wakeAt = wake
			}
		}
		return
	}

	// ISA task: restore its context (if not already live) and run.
	if !k.ctxLive {
		if err := k.IntPath.Restore(k, t); err != nil {
			k.removeTaskWith(t, ExitReason{Cause: ExitRestoreFault, Detail: err.Error()})
			return
		}
		k.ctxLive = true
	}
	start := k.M.Cycles()
	res := k.M.Run(budget)
	used := k.M.Cycles() - start
	t.CPUCycles += used
	t.burstAcc += used

	switch res.Reason {
	case machine.StopIRQ:
		// Leave it current: serviceInterrupt saves it. The burst is not
		// over — an interrupt is not a trap boundary; the accumulator
		// keeps running across the pre-emption.
	case machine.StopBudget:
		// Hit the simulation limit mid-run; park it consistently.
		k.Quiesce()
	case machine.StopSVC:
		k.closeBurst(t, "svc")
		k.M.Charge(machine.CostSyscallEntry)
		k.handleSyscall(t, res.SVC)
		// A syscall may have readied a higher-priority task (IPC
		// delivery, resume): pre-empt at the syscall boundary, exactly
		// like the tick path would.
		k.preemptIfNeeded()
	case machine.StopHalt:
		k.closeBurst(t, "hlt")
		k.removeTaskWith(t, ExitReason{Cause: ExitHalt, PC: k.M.EIP()})
	case machine.StopFault:
		k.closeBurst(t, "fault")
		k.removeTaskWith(t, faultExitReason(k.M.Cycles(), res.Fault))
	}
}

// closeBurst ends the task's current execution burst at a trap boundary
// and reports the measured cycles. Only SVC, HLT and faults close a
// burst — interrupts and budget splits merely suspend it — so the
// emitted cycle count is comparable to the static verifier's worst-case
// burst bound.
func (k *Kernel) closeBurst(t *TCB, boundary string) {
	cycles := t.burstAcc
	t.burstAcc = 0
	if k.M.Obs == nil {
		return
	}
	k.M.Emit(trace.SubKernel, trace.KindTaskBurst, t.Name,
		trace.Num("cycles", cycles), trace.Str("boundary", boundary))
}

// preemptIfNeeded parks the current task when a strictly
// higher-priority task is ready to run.
func (k *Kernel) preemptIfNeeded() {
	t := k.current
	if t == nil || t.State != StateRunning {
		return
	}
	for p := NumPriorities - 1; p > t.Priority; p-- {
		if len(k.ready[p]) == 0 {
			continue
		}
		k.bankContext()
		if t.State != StateDead {
			t.EntryInfo = EntryResumed
			k.enqueue(t)
		}
		k.current = nil
		k.preempted++
		return
	}
}
