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
//     restore fault) triggers a restart: the image is re-loaded
//     through the full loading sequence, so the new incarnation gets a
//     fresh EA-MPU region and a fresh RTM measurement;
//   - after MaxRestarts restarts, the next fault condemns the identity:
//     the task stays dead and Attest refuses to quote it (quarantine);
//   - a voluntary exit (halt, exit syscall, unload) ends supervision.
//
// The supervisor never polls. It acts on three events only: a watched
// task's exit (the kernel's exit hook), a restart falling due (its
// service task wakes at that cycle), and a reload ending (the loader
// calls back in the step that makes the new task schedulable, before it
// can run). Watching healthy tasks costs nothing.
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
}

// withDefaults fills zero fields from the tick period.
func (p SupervisorPolicy) withDefaults() SupervisorPolicy {
	if p.MaxRestarts == 0 {
		p.MaxRestarts = 2
	}
	if p.RestartDelay == 0 {
		p.RestartDelay = 2 * rtos.DefaultTickPeriod
	}
	return p
}

// Reloader re-runs the platform's loading sequence for a restart.
// core.Platform provides it. done is called once, when the load ends:
// with the new task, schedulable but not yet run, or with the error
// that ended the load.
type Reloader interface {
	Reload(im *telf.Image, kind rtos.TaskKind, prio int, done func(*rtos.TCB, error))
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
	What   string // "fault", "restart", "restarted", "restart-failed", "quarantine", "ended"
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

	// restartAt is the cycle the pending restart starts at; 0 when
	// none is pending, including while a restart's reload is in flight.
	restartAt uint64
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
	tcb    *rtos.TCB

	byID   map[rtos.TaskID]*watch
	byName map[string]*watch
	order  []*watch

	events []SupEvent
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
	Ended           uint64 // supervisions ended by voluntary exit
}

// Counts returns the supervisor's action counters.
func (s *Supervisor) Counts() SupCounts { return s.counts }

// Supervision cycle costs (simulated): the bookkeeping is cheap trusted
// code, but it is not free.
const (
	supRestartInit = 150 // per restart initiation
	supReloadDone  = 25  // per ended reload: bind the new task or schedule the retry
)

// NewSupervisor boots the supervisor as a service task at priority prio
// and makes it the target of the kernel's exit hook.
func NewSupervisor(k *rtos.Kernel, att *Attest, reload Reloader, pol SupervisorPolicy, prio int) (*Supervisor, error) {
	s := &Supervisor{
		k:      k,
		att:    att,
		reload: reload,
		pol:    pol.withDefaults(),
		byID:   make(map[rtos.TaskID]*watch),
		byName: make(map[string]*watch),
	}
	tcb, err := k.NewServiceTask("supervisor", prio, s)
	if err != nil {
		return nil, err
	}
	s.tcb = tcb
	k.OnTaskExit = func(_ *rtos.Kernel, rec rtos.ExitRecord) { s.taskExited(rec) }
	return s, nil
}

// Watch places a loaded task under supervision. im is the image to
// restart from; identity the measured identity (zero for normal tasks).
func (s *Supervisor) Watch(t *rtos.TCB, im *telf.Image, identity sha1.Digest) {
	w := &watch{
		name:     t.Name,
		im:       im,
		kind:     t.Kind,
		prio:     t.Priority,
		identity: identity,
		id:       t.ID,
		state:    WatchHealthy,
	}
	s.byID[t.ID] = w
	s.byName[w.name] = w
	s.order = append(s.order, w)
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
	case "ended":
		s.counts.Ended++
	}
	if s.k.M.Obs != nil {
		s.k.M.Emit(trace.SubSupervisor, trace.KindSupervisor, task,
			trace.Str("what", what), trace.Str("detail", detail))
	}
}

// taskExited is the kernel exit-hook target: classify a watched task's
// exit and decide restart vs quarantine vs end-of-supervision.
func (s *Supervisor) taskExited(rec rtos.ExitRecord) {
	w, ok := s.byID[rec.ID]
	if !ok || w.state != WatchHealthy {
		return
	}
	delete(s.byID, rec.ID)
	w.lastExit = rec.Reason
	if !rec.Reason.Cause.IsFault() {
		w.state = WatchEnded
		s.logEvent(w.name, "ended", rec.Reason.String())
		return
	}
	s.logEvent(w.name, "fault", rec.Reason.String())
	s.retry(w)
}

// retry schedules w's next restart, or quarantines it once its restart
// budget is spent. The delay doubles per restart already consumed.
func (s *Supervisor) retry(w *watch) {
	if w.restarts >= s.pol.MaxRestarts {
		w.state = WatchQuarantined
		if s.att != nil && w.identity != (sha1.Digest{}) {
			s.att.Quarantine(w.identity)
		}
		s.logEvent(w.name, "quarantine",
			fmt.Sprintf("restart budget (%d) exhausted", s.pol.MaxRestarts))
		return
	}
	w.state = WatchRestarting
	w.restartAt = s.k.M.Cycles() + s.pol.RestartDelay<<uint(w.restarts)
	s.k.WakeService(s.tcb)
}

// reloaded is a restart's done callback. On success it binds the new
// incarnation before that task can run, so even one that crashes on its
// first instruction is handled as the watched task.
func (s *Supervisor) reloaded(w *watch, t *rtos.TCB, err error) {
	if err != nil {
		s.logEvent(w.name, "restart-failed", err.Error())
		s.retry(w)
	} else {
		w.id = t.ID
		w.state = WatchHealthy
		s.byID[t.ID] = w
		s.logEvent(w.name, "restarted", fmt.Sprintf("task id %d", t.ID))
	}
	s.k.M.Charge(supReloadDone)
}

// HasWork implements the kernel's wakeable probe: a restart is due. An
// in-flight reload is not work; the lower-priority loader service must
// get the CPU to finish it.
func (s *Supervisor) HasWork() bool {
	next := s.NextWake()
	return next != 0 && next <= s.k.M.Cycles()
}

// NextWake tells the scheduler the cycle of the earliest pending
// restart; 0 (none) leaves the supervisor asleep until an exit or an
// ended reload wakes it.
func (s *Supervisor) NextWake() uint64 {
	var next uint64
	for _, w := range s.order {
		if w.restartAt != 0 && (next == 0 || w.restartAt < next) {
			next = w.restartAt
		}
	}
	return next
}

// Step implements rtos.Service: start every due restart.
func (s *Supervisor) Step(k *rtos.Kernel, _ *rtos.TCB, _ uint64) (uint64, rtos.NativeStatus) {
	var used uint64
	now := k.M.Cycles()
	for _, w := range s.order {
		if w.restartAt == 0 || now < w.restartAt {
			continue
		}
		used += supRestartInit
		w.restarts++
		w.restartAt = 0
		s.logEvent(w.name, "restart", fmt.Sprintf("attempt %d/%d", w.restarts, s.pol.MaxRestarts))
		s.reload.Reload(w.im, w.kind, w.prio, func(t *rtos.TCB, err error) { s.reloaded(w, t, err) })
	}
	return used, rtos.NativeIdle
}
