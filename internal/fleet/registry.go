package fleet

import (
	"fmt"
	"sort"
	"sync"
)

// The fleet registry tracks per-device health the way
// trusted.Supervisor tracks per-task health: a bounded failure budget,
// then quarantine. A device that fails appraisal is suspect; once its
// failures exhaust the budget it is quarantined and the plane refuses
// its hellos at the door — the fleet-level analogue of the supervisor
// condemning a task identity after its restart budget.

// DeviceState is a device's standing with the verifier plane.
type DeviceState uint8

const (
	// DeviceHealthy: the device's last appraisal passed (or it has not
	// been appraised yet).
	DeviceHealthy DeviceState = iota
	// DeviceSuspect: at least one appraisal failed, budget not yet
	// exhausted.
	DeviceSuspect
	// DeviceQuarantined: the failure budget is exhausted (or an
	// operator quarantined the device); hellos are refused. Sticky.
	DeviceQuarantined
)

// String names the state like the supervisor's states.
func (s DeviceState) String() string {
	switch s {
	case DeviceHealthy:
		return "healthy"
	case DeviceSuspect:
		return "suspect"
	case DeviceQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Device is one registry entry (a value copy; the registry owns the
// mutable record).
type Device struct {
	// Name is the fleet-unique device name.
	Name string
	// State is the device's current standing.
	State DeviceState
	// Passes and Failures count appraisal verdicts.
	Passes, Failures int
	// Refusals counts hellos refused while quarantined.
	Refusals int
}

// Registry is the fleet's device table. Safe for concurrent use.
type Registry struct {
	mu          sync.Mutex
	maxFailures int
	byName      map[string]*Device
}

// NewRegistry creates a registry with the given failure budget: a
// device is quarantined when its appraisal failures reach the budget
// (0 = 3, mirroring the supervisor's default restart budget).
func NewRegistry(maxFailures int) *Registry {
	if maxFailures <= 0 {
		maxFailures = 3
	}
	return &Registry{maxFailures: maxFailures, byName: make(map[string]*Device)}
}

// MaxFailures returns the failure budget.
func (r *Registry) MaxFailures() int { return r.maxFailures }

// Register adds a device in the healthy state. Registering an existing
// name is a no-op (the record, including any quarantine, survives).
func (r *Registry) Register(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; !ok {
		r.byName[name] = &Device{Name: name}
	}
}

// Lookup returns a copy of the device's record.
func (r *Registry) Lookup(name string) (Device, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.byName[name]
	if !ok {
		return Device{}, false
	}
	return *d, true
}

// NotePass records a passed appraisal and returns the updated record.
// A suspect device recovers to healthy; a quarantined device stays
// quarantined (condemnation is sticky, like the supervisor's).
func (r *Registry) NotePass(name string) Device {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.byName[name]
	if !ok {
		return Device{Name: name}
	}
	d.Passes++
	if d.State == DeviceSuspect {
		d.State = DeviceHealthy
	}
	return *d
}

// NoteFail records a failed appraisal and returns the updated record:
// suspect while failures stay under the budget, quarantined once the
// budget is exhausted.
func (r *Registry) NoteFail(name string) Device {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.byName[name]
	if !ok {
		return Device{Name: name}
	}
	d.Failures++
	if d.State != DeviceQuarantined {
		if d.Failures >= r.maxFailures {
			d.State = DeviceQuarantined
		} else {
			d.State = DeviceSuspect
		}
	}
	return *d
}

// Quarantined reports whether the device is quarantined.
func (r *Registry) Quarantined(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.byName[name]
	return ok && d.State == DeviceQuarantined
}

// noteRefusal counts a hello refused while quarantined and returns the
// updated record.
func (r *Registry) noteRefusal(name string) Device {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.byName[name]
	if !ok {
		return Device{Name: name}
	}
	d.Refusals++
	return *d
}

// Snapshot returns every record, sorted by name (deterministic
// reports).
func (r *Registry) Snapshot() []Device {
	r.mu.Lock()
	out := make([]Device, 0, len(r.byName))
	for _, d := range r.byName {
		out = append(out, *d)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counts returns how many devices are in each state.
func (r *Registry) Counts() (healthy, suspect, quarantined int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range r.byName {
		switch d.State {
		case DeviceHealthy:
			healthy++
		case DeviceSuspect:
			suspect++
		case DeviceQuarantined:
			quarantined++
		}
	}
	return
}
