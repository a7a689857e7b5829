package core

import "repro/internal/rtos"

// Accessors only this package's tests use.

// Suspend stops a task from being scheduled until Resume.
func (p *Platform) Suspend(id rtos.TaskID) error { return p.K.Suspend(id) }

// Resume reverses Suspend.
func (p *Platform) Resume(id rtos.TaskID) error { return p.K.Resume(id) }

// Phase returns the current phase.
func (r *LoadRequest) Phase() LoadPhase { return r.phase }

// Observability returns the handle if EnableObservability has run.
func (p *Platform) Observability() *Obs { return p.obsHandle }
