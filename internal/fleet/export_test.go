package fleet

// Accessors only this package's tests use.

// Quarantine condemns a device directly (operator action).
func (r *Registry) Quarantine(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.byName[name]; ok {
		d.State = DeviceQuarantined
	}
}

// Len returns the number of registered devices.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byName)
}
