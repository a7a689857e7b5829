package machine

// Accessors only this package's tests use.

// Period returns the configured tick period in cycles.
func (t *Timer) Period() uint64 { return t.period }

// Key returns a copy of the raw key.
func (k *KeyStore) Key() []byte { return append([]byte(nil), k.key[:]...) }

// EFLAGS returns the flags register.
func (m *Machine) EFLAGS() uint32 { return m.eflags }

// IDTHandler reads the handler address for a vector directly from the
// in-memory IDT (a hardware access: not EA-MPU checked — the register
// pointing at the IDT is fixed, and the table itself is protected
// against software writes by a locked rule).
func (m *Machine) IDTHandler(vector int) uint32 {
	if vector < 0 || vector >= IDTEntries {
		return 0
	}
	v, err := m.RawRead32(IDTBase + uint32(vector*4))
	if err != nil {
		return 0
	}
	return v
}

// RAMView returns a view aliasing [addr, addr+n) of RAM, bypassing the
// EA-MPU, without copying. Callers must treat the slice as read-only
// and must not hold it across a mutation of the underlying memory.
func (m *Machine) RAMView(addr, n uint32) ([]byte, error) {
	i, err := m.ramIndex(addr, n)
	if err != nil {
		return nil, err
	}
	return m.ram[i : i+int(n) : i+int(n)], nil
}
