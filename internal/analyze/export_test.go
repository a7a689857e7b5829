package analyze

// Accessors only this package's tests use.

// Violations returns how many rules have fired online so far.
func (m *Monitor) Violations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.fired)
}

// Unclosed returns the unclosed spans.
func (a *Analysis) Unclosed() []Span {
	var out []Span
	for _, s := range a.Spans {
		if s.Unclosed {
			out = append(out, s)
		}
	}
	return out
}
