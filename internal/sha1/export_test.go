package sha1

// Accessors only this package's tests use.

// Blocks returns the number of full compressions performed so far.
func (s *State) Blocks() uint64 { return s.len / BlockSize }
