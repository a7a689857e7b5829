package trace

// arenaChunk is how many attrs one Arena chunk holds (3 KiB). Chunks
// have one fixed size: an emitter that stops after a few events wastes
// at most one partly filled chunk, where doubling chunks would waste up
// to half of what it allocated. A long-lived emitter pays for that with
// one small allocation per chunk (~10% of BenchmarkEmit/buffer's time
// per event against chunks doubling to 1024 attrs).
const arenaChunk = 64

// Arena is an emitter's attr store. Copy places each event's attrs in
// the current chunk, so a call site's attrs can stay on its stack and
// an event costs no allocation of its own. Chunks are never regrown: a
// full one stays where it is and the next copy opens a new one, so
// every slice handed out stays valid. The zero value is ready. An Arena
// is not safe for concurrent use; an emitter shared between goroutines
// guards its own.
type Arena struct {
	chunk []Attr
}

// Copy returns a copy of attrs in the arena, capacity-clipped so a
// consumer's append cannot reach its neighbour's (nil for none).
func (a *Arena) Copy(attrs ...Attr) []Attr {
	n := len(attrs)
	if n == 0 {
		return nil
	}
	if n > cap(a.chunk)-len(a.chunk) {
		a.chunk = make([]Attr, 0, max(arenaChunk, n))
	}
	lo := len(a.chunk)
	a.chunk = append(a.chunk, attrs...)
	return a.chunk[lo : lo+n : lo+n]
}
