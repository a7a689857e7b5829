package sverify

// Accessors only this package's tests use.

// HasErrors reports whether any finding is an Error.
func (r *Report) HasErrors() bool { return len(r.Errors()) > 0 }

// DefiniteErrors returns the Error findings whose fault is guaranteed
// on the must-execute path — the images the differential test runs to
// an actual fault.
func (r *Report) DefiniteErrors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Sev == Error && f.Definite {
			out = append(out, f)
		}
	}
	return out
}
