package trusted

// Accessors only this package's tests use.

// Measured returns how many measurements have completed.
func (r *RTM) Measured() uint64 { return r.measured }

// Slots returns the number of occupied slots.
func (s *Storage) Slots() int { return len(s.blobs) }
