package trusted

import (
	"fmt"

	"repro/internal/rtos"
	"repro/internal/sha1"
	"repro/internal/telf"
	"repro/internal/trace"
)

// The trusted supervisor turns the kernel's structured exit records into
// a recovery policy. The paper's argument (§1, §5) is that a compromised
// or crashed task "can be restarted or substituted by another task"
// because isolation confines the damage; the supervisor is the component
// that actually does the restarting — and that stops vouching for a
// binary which keeps crashing.
//
// Policy, per watched task:
//
//   - a fault exit (EA-MPU violation, bad syscall, stack overflow,
//     watchdog verdict) triggers a restart: the image is re-loaded
//     through the full loading sequence, so the new incarnation gets a
//     fresh EA-MPU region and a fresh RTM measurement;
//   - after MaxRestarts restarts, the next fault condemns the identity:
//     the task stays dead and Attest refuses to quote it (quarantine);
//   - a watchdog kills watched tasks that stop making CPU progress
//     (hung) or exceed a CPU quota per check window (runaway);
//   - a voluntary exit (halt, exit syscall, unload) ends supervision.
//
// Everything is driven by the simulated cycle counter, so supervised
// runs are exactly as deterministic as unsupervised ones.

// SupervisorPolicy parameterizes recovery.
type SupervisorPolicy struct {
	// MaxRestarts is how many times a faulting task is restarted before
	// quarantine (default 2).
	MaxRestarts int
	// RestartDelay is the cycle delay before the first restart; it
	// doubles per restart of the same task (default 2 * tick).
	RestartDelay uint64
	// CheckPeriod is the watchdog inspection period in cycles
	// (default 8 * tick).
	CheckPeriod uint64
	// HangTimeout: a watched task making no CPU progress for this many
	// cycles is killed as hung. 0 disables hang detection.
	HangTimeout uint64
	// CPUQuota: a watched task using more than this many CPU cycles
	// within one check window is killed as runaway. 0 disables.
	CPUQuota uint64
}

// withDefaults fills zero fields from the tick period.
func (p SupervisorPolicy) withDefaults() SupervisorPolicy {
	const tick = rtos.DefaultTickPeriod
	if p.MaxRestarts == 0 {
		p.MaxRestarts = 2
	}
	if p.RestartDelay == 0 {
		p.RestartDelay = 2 * tick
	}
	if p.CheckPeriod == 0 {
		p.CheckPeriod = 8 * tick
	}
	return p
}

// ReloadTicket is an in-flight task reload the supervisor polls.
// *core.LoadRequest satisfies it.
type ReloadTicket interface {
	Done() bool
	Err() error
	Task() *rtos.TCB
}

// Reloader re-runs the platform's loading sequence for a restart.
// core.Platform provides it via LoadTaskAsync.
type Reloader interface {
	Reload(im *telf.Image, kind rtos.TaskKind, prio int) ReloadTicket
}

// WatchState is the supervision state of one task.
type WatchState int

// Watch states.
const (
	WatchHealthy WatchState = iota
	WatchRestarting
	WatchQuarantined
	WatchEnded // voluntary exit; supervision over
)

// String names the state.
func (s WatchState) String() string {
	switch s {
	case WatchHealthy:
		return "healthy"
	case WatchRestarting:
		return "restarting"
	case WatchQuarantined:
		return "quarantined"
	case WatchEnded:
		return "ended"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// SupEvent is one entry of the supervisor's audit log.
type SupEvent struct {
	Cycle  uint64
	Task   string
	What   string // "fault", "restart", "restarted", "restart-failed", "quarantine", "watchdog-hang", "watchdog-quota", "ended"
	Detail string
}

// maxEvents bounds the audit log so week-long chaos runs cannot grow it
// without bound; older entries are dropped.
const maxEvents = 4096

// watch is the supervisor's record of one task under supervision.
type watch struct {
	name     string
	im       *telf.Image
	kind     rtos.TaskKind
	prio     int
	identity sha1.Digest

	id       rtos.TaskID
	state    WatchState
	restarts int
	lastExit rtos.ExitReason

	// restart machinery
	restartAt uint64
	ticket    ReloadTicket

	// watchdog baselines
	lastCPU      uint64 // task CPUCycles at last progress
	lastProgress uint64 // cycle of last observed progress
	windowCPU    uint64 // task CPUCycles at window start
	windowStart  uint64
}

// WatchStatus is the queryable snapshot of one supervised task.
type WatchStatus struct {
	Name     string
	State    WatchState
	TaskID   rtos.TaskID
	Restarts int
	LastExit rtos.ExitReason
}

// Supervisor is the trusted recovery component. It runs as a native
// service task so all its work is scheduled and cycle-accounted like any
// other trusted component.
type Supervisor struct {
	k      *rtos.Kernel
	att    *Attest
	reload Reloader
	pol    SupervisorPolicy

	byID   map[rtos.TaskID]*watch
	byName map[string]*watch
	order  []*watch

	nextCheck uint64
	events    []SupEvent
	tcb       *rtos.TCB

	counts SupCounts
}

// SupCounts are the supervisor's monotonic action counters — unlike the
// audit log they are never truncated, so metrics stay exact over
// arbitrarily long chaos runs.
type SupCounts struct {
	Faults          uint64 // fault exits observed on watched tasks
	Restarts        uint64 // restart attempts initiated
	RestartFailures uint64 // reloads that failed
	Quarantines     uint64 // identities condemned
	WatchdogKills   uint64 // hang + quota kills
	Ended           uint64 // supervisions ended by voluntary exit
}

// Counts returns the supervisor's action counters.
func (s *Supervisor) Counts() SupCounts { return s.counts }

// Supervision cycle costs (simulated): the bookkeeping is cheap trusted
// code, but it is not free.
const (
	supCheckBase    = 60  // per watchdog sweep
	supCheckPerTask = 25  // per watched task inspected
	supRestartInit  = 150 // per restart initiation
)

// NewSupervisor creates the supervisor. Call Attach (or install it as a
// service task and wire Kernel.OnTaskExit to TaskExited) to activate it.
func NewSupervisor(k *rtos.Kernel, att *Attest, reload Reloader, pol SupervisorPolicy) *Supervisor {
	return &Supervisor{
		k:      k,
		att:    att,
		reload: reload,
		pol:    pol.withDefaults(),
		byID:   make(map[rtos.TaskID]*watch),
		byName: make(map[string]*watch),
	}
}

// Policy returns the effective (defaults-filled) policy.
func (s *Supervisor) Policy() SupervisorPolicy { return s.pol }

// Attach installs the supervisor as a service task at the given priority
// and wires the kernel's exit hook to it. prev exit hooks are chained.
func (s *Supervisor) Attach(prio int) (*rtos.TCB, error) {
	tcb, err := s.k.NewServiceTask("supervisor", prio, s)
	if err != nil {
		return nil, err
	}
	s.tcb = tcb
	prev := s.k.OnTaskExit
	s.k.OnTaskExit = func(k *rtos.Kernel, rec rtos.ExitRecord) {
		if prev != nil {
			prev(k, rec)
		}
		s.TaskExited(rec)
	}
	return tcb, nil
}

// Watch places a loaded task under supervision. im is the image to
// restart from; identity the measured identity (zero for normal tasks).
func (s *Supervisor) Watch(t *rtos.TCB, im *telf.Image, identity sha1.Digest) {
	now := s.k.M.Cycles()
	w := &watch{
		name:         t.Name,
		im:           im,
		kind:         t.Kind,
		prio:         t.Priority,
		identity:     identity,
		id:           t.ID,
		state:        WatchHealthy,
		lastCPU:      t.CPUCycles,
		lastProgress: now,
		windowCPU:    t.CPUCycles,
		windowStart:  now,
	}
	s.byID[t.ID] = w
	s.byName[w.name] = w
	s.order = append(s.order, w)
	if s.nextCheck == 0 {
		s.nextCheck = now + s.pol.CheckPeriod
	}
	if s.tcb != nil {
		s.k.WakeService(s.tcb)
	}
}

// Status returns the supervision snapshot for a task name.
func (s *Supervisor) Status(name string) (WatchStatus, bool) {
	w, ok := s.byName[name]
	if !ok {
		return WatchStatus{}, false
	}
	return WatchStatus{
		Name:     w.name,
		State:    w.state,
		TaskID:   w.id,
		Restarts: w.restarts,
		LastExit: w.lastExit,
	}, true
}

// Events returns the audit log (oldest first; may have been truncated).
func (s *Supervisor) Events() []SupEvent { return s.events }

// logEvent appends one audit-log entry and reports it as a
// KindSupervisor event (subject = task name); unlike the bounded log,
// the event stream keeps every entry.
func (s *Supervisor) logEvent(task, what, detail string) {
	if len(s.events) >= maxEvents {
		n := copy(s.events, s.events[len(s.events)/2:])
		s.events = s.events[:n]
	}
	s.events = append(s.events, SupEvent{
		Cycle: s.k.M.Cycles(), Task: task, What: what, Detail: detail,
	})
	switch what {
	case "fault":
		s.counts.Faults++
	case "restart":
		s.counts.Restarts++
	case "restart-failed":
		s.counts.RestartFailures++
	case "quarantine":
		s.counts.Quarantines++
	case "watchdog-hang", "watchdog-quota":
		s.counts.WatchdogKills++
	case "ended":
		s.counts.Ended++
	}
	if s.k.M.Obs != nil {
		s.k.M.Emit(trace.SubSupervisor, trace.KindSupervisor, task,
			trace.Str("what", what), trace.Str("detail", detail))
	}
}

// TaskExited is the kernel exit-hook target: classify the exit and
// decide restart vs quarantine vs end-of-supervision.
func (s *Supervisor) TaskExited(rec rtos.ExitRecord) {
	w, ok := s.byID[rec.ID]
	if !ok || w.state != WatchHealthy {
		return
	}
	delete(s.byID, rec.ID)
	s.handleExit(w, rec.Reason)
}

// handleExit applies the recovery policy to one observed exit.
func (s *Supervisor) handleExit(w *watch, reason rtos.ExitReason) {
	w.lastExit = reason
	if !reason.Cause.IsFault() {
		w.state = WatchEnded
		s.logEvent(w.name, "ended", reason.String())
		return
	}
	s.logEvent(w.name, "fault", reason.String())
	if w.restarts >= s.pol.MaxRestarts {
		s.quarantine(w)
		return
	}
	// Exponential backoff: delay doubles per restart already consumed.
	delay := s.pol.RestartDelay << uint(w.restarts)
	w.state = WatchRestarting
	w.restartAt = s.k.M.Cycles() + delay
	w.ticket = nil
	if s.tcb != nil {
		s.k.WakeService(s.tcb)
	}
}

// quarantine condemns the identity: no more restarts, no more quotes.
func (s *Supervisor) quarantine(w *watch) {
	w.state = WatchQuarantined
	w.ticket = nil
	if s.att != nil && w.identity != (sha1.Digest{}) {
		s.att.Quarantine(w.identity)
	}
	s.logEvent(w.name, "quarantine",
		fmt.Sprintf("restart budget (%d) exhausted", s.pol.MaxRestarts))
}

// HasWork implements the kernel's wakeable probe. An in-flight reload
// whose ticket is not yet done does NOT count as work: the supervisor
// must go idle and poll (NextWake), otherwise it would starve the
// lower-priority loader service that completes the reload.
func (s *Supervisor) HasWork() bool {
	now := s.k.M.Cycles()
	if s.nextCheck != 0 && now >= s.nextCheck {
		return true
	}
	for _, w := range s.order {
		if w.state != WatchRestarting {
			continue
		}
		if w.ticket != nil {
			if w.ticket.Done() {
				return true
			}
			continue
		}
		if now >= w.restartAt {
			return true
		}
	}
	return false
}

// NextWake tells the scheduler when the supervisor needs the CPU again:
// the earliest of the watchdog check, a due restart, or a reload poll.
func (s *Supervisor) NextWake() uint64 {
	var next uint64
	consider := func(c uint64) {
		if c != 0 && (next == 0 || c < next) {
			next = c
		}
	}
	if s.watching() {
		consider(s.nextCheck)
	}
	now := s.k.M.Cycles()
	for _, w := range s.order {
		if w.state != WatchRestarting {
			continue
		}
		if w.ticket != nil {
			consider(now + s.pol.CheckPeriod/4) // poll the in-flight reload
		} else {
			consider(w.restartAt)
		}
	}
	return next
}

// watching reports whether any task is still under active supervision.
func (s *Supervisor) watching() bool {
	for _, w := range s.order {
		if w.state == WatchHealthy || w.state == WatchRestarting {
			return true
		}
	}
	return false
}

// Step implements rtos.Service: run restarts and the watchdog.
func (s *Supervisor) Step(k *rtos.Kernel, self *rtos.TCB, budget uint64) (uint64, rtos.NativeStatus) {
	s.tcb = self
	var used uint64
	now := k.M.Cycles()

	for _, w := range s.order {
		if w.state != WatchRestarting {
			continue
		}
		if w.ticket == nil && now >= w.restartAt {
			used += supRestartInit
			w.restarts++
			w.ticket = s.reload.Reload(w.im, w.kind, w.prio)
			s.logEvent(w.name, "restart",
				fmt.Sprintf("attempt %d/%d", w.restarts, s.pol.MaxRestarts))
		}
		if w.ticket != nil && w.ticket.Done() {
			used += supCheckPerTask
			if err := w.ticket.Err(); err != nil {
				s.logEvent(w.name, "restart-failed", err.Error())
				if w.restarts >= s.pol.MaxRestarts {
					s.quarantine(w)
				} else {
					w.restartAt = now + (s.pol.RestartDelay << uint(w.restarts))
					w.ticket = nil
				}
				continue
			}
			nt := w.ticket.Task()
			if rec, gone := k.ExitInfo(nt.ID); gone {
				// The incarnation crashed before this poll could adopt it
				// (its exit hook found no watch bound to the new ID).
				// Apply the policy to the recorded exit now.
				w.ticket = nil
				s.handleExit(w, rec.Reason)
				continue
			}
			s.adopt(w, nt)
		}
	}

	if s.nextCheck != 0 && now >= s.nextCheck {
		used += s.watchdogSweep(now)
		s.nextCheck = now + s.pol.CheckPeriod
	}

	if s.HasWork() {
		return used, rtos.NativeReady
	}
	if !s.watching() {
		s.nextCheck = 0
	}
	return used, rtos.NativeIdle
}

// adopt rebinds a watch to the freshly-reloaded incarnation.
func (s *Supervisor) adopt(w *watch, t *rtos.TCB) {
	now := s.k.M.Cycles()
	w.id = t.ID
	w.state = WatchHealthy
	w.ticket = nil
	w.lastCPU = t.CPUCycles
	w.lastProgress = now
	w.windowCPU = t.CPUCycles
	w.windowStart = now
	s.byID[t.ID] = w
	s.logEvent(w.name, "restarted", fmt.Sprintf("task id %d", t.ID))
}

// watchdogSweep inspects every healthy watched task for hangs and CPU
// quota violations, killing offenders through the kernel (which routes
// the exit straight back into TaskExited → restart or quarantine).
func (s *Supervisor) watchdogSweep(now uint64) uint64 {
	used := uint64(supCheckBase)
	for _, w := range s.order {
		if w.state != WatchHealthy {
			continue
		}
		used += supCheckPerTask
		t, ok := s.k.Task(w.id)
		if !ok {
			continue // exit hook will have run; nothing to inspect
		}
		cpu := t.CPUCycles
		if cpu > w.lastCPU {
			w.lastCPU = cpu
			w.lastProgress = now
		}
		if s.pol.CPUQuota != 0 && cpu-w.windowCPU > s.pol.CPUQuota {
			s.logEvent(w.name, "watchdog-quota",
				fmt.Sprintf("%d cycles in window, quota %d", cpu-w.windowCPU, s.pol.CPUQuota))
			s.k.Kill(w.id, rtos.ExitWatchdog,
				fmt.Sprintf("cpu quota exceeded: %d > %d", cpu-w.windowCPU, s.pol.CPUQuota))
			continue
		}
		if s.pol.HangTimeout != 0 && now-w.lastProgress >= s.pol.HangTimeout {
			s.logEvent(w.name, "watchdog-hang",
				fmt.Sprintf("no progress for %d cycles", now-w.lastProgress))
			s.k.Kill(w.id, rtos.ExitWatchdog,
				fmt.Sprintf("hung: no progress for %d cycles", now-w.lastProgress))
			continue
		}
		w.windowCPU = cpu
		w.windowStart = now
	}
	return used
}
