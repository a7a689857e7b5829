package loader

// Accessors only this package's tests use.

// Phase returns the current phase.
func (j *Job) Phase() Phase { return j.phase }
