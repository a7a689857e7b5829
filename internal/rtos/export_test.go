package rtos

import "repro/internal/loader"

// Accessors only this package's tests use.

// InstallTask is InstallTaskSuspended followed by ready-list insertion
// without the resume charge: the returned TCB is ready to run.
func (k *Kernel) InstallTask(name string, kind TaskKind, prio int, p loader.Placement) (*TCB, error) {
	t, err := k.InstallTaskSuspended(name, kind, prio, p)
	if err != nil {
		return nil, err
	}
	k.enqueue(t)
	return t, nil
}
