package eampu

// Accessors only this package's tests use.

// ContainsRange reports whether the whole range [addr, addr+size) lies
// in the region.
func (r Region) ContainsRange(addr, size uint32) bool {
	if size == 0 {
		return r.Contains(addr)
	}
	return r.Contains(addr) && addr+size-1 >= addr && r.Contains(addr+size-1)
}

// Reset returns the unit to its zero state (all slots free, disabled),
// as a power cycle does on real hardware. The generation counter survives (and advances) so that caches
// keyed on it cannot mistake the post-reset configuration for a
// pre-reset one.
func (m *MPU) Reset() {
	gen, viol := m.gen, m.violations
	*m = MPU{}
	m.gen = gen + 1
	m.violations = viol
}
