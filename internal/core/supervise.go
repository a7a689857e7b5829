package core

import (
	"errors"

	"repro/internal/rtos"
	"repro/internal/sha1"
	"repro/internal/telf"
	"repro/internal/trusted"
)

// Supervision wiring: the trusted supervisor restarts faulted tasks by
// re-running the platform's loading sequence, so restarted incarnations
// get a fresh EA-MPU region and a fresh RTM measurement.

// supervisorPriority places the supervisor above normal workloads but
// below interrupt service — recovery decisions should not be starved by
// the tasks being recovered.
const supervisorPriority = 6

// ErrNoSupervisor is returned by Watch when supervision is not enabled.
var ErrNoSupervisor = errors.New("core: supervision not enabled")

// Reload implements trusted.Reloader: a supervisor restart is a normal
// asynchronous load that calls done when it ends.
func (p *Platform) Reload(im *telf.Image, kind rtos.TaskKind, prio int, done func(*rtos.TCB, error)) {
	p.loadAsync(im, kind, prio, done)
}

// EnableSupervision boots the trusted supervisor as a service task and
// wires the kernel's exit hook to it. Idempotent.
func (p *Platform) EnableSupervision(pol trusted.SupervisorPolicy) (*trusted.Supervisor, error) {
	if p.C == nil {
		return nil, ErrBaselineOnly
	}
	if p.Sup != nil {
		return p.Sup, nil
	}
	sup, err := trusted.NewSupervisor(p.K, p.C.Attest, p, pol, supervisorPriority)
	if err != nil {
		return nil, err
	}
	p.Sup = sup
	return sup, nil
}

// Watch places a loaded task under supervision, resolving its restart
// image and measured identity from the TCB and the RTM registry.
func (p *Platform) Watch(id rtos.TaskID) error {
	if p.Sup == nil {
		return ErrNoSupervisor
	}
	t, ok := p.K.Task(id)
	if !ok {
		return rtos.ErrNoSuchTask
	}
	var identity sha1.Digest
	im := t.Placement.Image
	if e, ok := p.C.RTM.LookupByTask(id); ok {
		identity = e.ID
		im = e.Image
	}
	p.Sup.Watch(t, im, identity)
	return nil
}
