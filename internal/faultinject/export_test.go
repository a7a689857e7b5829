package faultinject

// Accessors only this package's tests use.

// Counts returns injections applied per class.
func (i *Injector) Counts() map[Class]int {
	out := make(map[Class]int, len(i.counts))
	for k, v := range i.counts {
		out[k] = v
	}
	return out
}
