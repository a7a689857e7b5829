package machine

import (
	"slices"
	"sync"

	"repro/internal/eampu"
	"repro/internal/isa"
)

// The interpreter fast path. Two caches take the per-instruction cost of
// simulation off the hot loop without changing a single architecturally
// visible bit:
//
//   - a decoded-instruction cache: a direct-mapped predecode table keyed
//     by physical address, filled on first fetch straight out of m.ram
//     (no allocation, no copy) and consulted on every later fetch. A hit
//     hands Step a pointer to the entry and copies nothing: passed by
//     value, the five-field isa.Instruction was spilled byte by byte and
//     reloaded as one word at each hand-off, and the reload stalled on
//     a store-forwarding failure. An entry is never refilled while Step
//     reads it: writes into cached code only advance the generation;
//
//   - an EA-MPU decision cache: memoized CheckExec/CheckData "allow"
//     verdicts stored as constant-verdict address spans (see
//     eampu.ExecSpan/DataSpan/CodeSpan), so straight-line execution and
//     repeated loads/stores inside a task reduce to O(1) range tests
//     instead of the 18-slot rule scan.
//
// Both caches are invalidated by a single machine-level generation
// counter (m.gen): it is bumped whenever a RAM write overlaps a cached
// code line (detected by probing the direct-mapped table for the few
// slots whose lines could cover the written bytes) and whenever the
// EA-MPU configuration changes (observed via eampu.MPU.Generation).
// Entries tag the generation they were filled under; a mismatch makes
// them invisible, so invalidation is O(1).
//
// Determinism: the caches only ever short-circuit host work. Cycle
// charging comes from InstructionCost and the cost tables, never from
// host effort, and every cache miss or denied access falls back to the
// reference implementation, so cycle counts, fault PCs and trace output
// are bit-for-bit identical with FastPath on and off. The differential
// tests in fastpath_test.go and superblock_test.go enforce this.

// FastPathDefault is the FastPath setting New gives fresh machines: the
// one engine switch (see Machine.FastPath). The differential tests
// flip it to run whole firmware stacks on the reference oracle.
var FastPathDefault = true

const (
	// icacheBits sizes the direct-mapped predecode table (1<<icacheBits
	// entries, indexed by word address) in its default configuration.
	// 1024 entries cover 4 KiB of straight-line code per alias set —
	// plenty for the paper's task images — while keeping the table cheap
	// to allocate per machine. GrowICacheForText grows the table up to
	// icacheMaxBits when larger images load.
	icacheBits    = 10
	icacheMaxBits = 16

	// dcacheWays is the number of decision-cache entries per access
	// kind, indexed by a hash of execution context and target page so
	// interleaved bus masters (a running task, the trusted loader, the
	// Int Mux saving/restoring contexts of different tasks) each keep
	// their own memoized span instead of evicting each other.
	dcacheBits = 5
	dcacheWays = 1 << dcacheBits

	// execWays is the number of memoized fetch spans, indexed by a hash
	// of the fetching PC so alternating tasks (plus the idle loop)
	// survive context switches without re-running the slot scan.
	execBits = 3
	execWays = 1 << execBits

	// hashMul spreads all address bits into a cache index (Fibonacci
	// hashing): task placements can differ in a single high bit that a
	// plain shift-and-mask index would discard.
	hashMul = 0x9E3779B1

	// dirtyPageBits sizes the dirty-page granule (4 KiB); dirtyWords
	// bitmap words cover the default 4 MiB memory map with room to
	// spare. Release clears only dirtied pages of a recycled buffer.
	dirtyPageBits = 12
	dirtyWords    = (64 << 20) >> dirtyPageBits / 64
)

// ramPool recycles RAM buffers between machines: the evaluation harness
// builds a fresh multi-megabyte platform per measurement, and zeroing
// that much memory dominated host time. Pooled buffers are re-zeroed up
// to their dirty watermark before reuse (every RAM mutation funnels
// through noteRAMWrite, which maintains the watermark), so a recycled
// machine is bit-for-bit indistinguishable from a freshly allocated
// one. Buffers enter the pool only through an explicit Release call.
var ramPool recycler[byte]

// icachePool and sbcachePool recycle the default-size predecode table
// and the compiled-block table. Their entries are tagged with a
// generation, and every machine starts at generation 1, so a table
// must be cleared before it is pooled: a stale entry would otherwise
// match in the next machine.
var (
	icachePool  recycler[icEntry]
	sbcachePool recycler[sbEntry]
)

// recyclerCap bounds each recycler. A buffer parks only after its
// machine was live, so what a recycler holds never exceeds the peak of
// machines live at once; the bound stops it from holding on to more.
const recyclerCap = 16

// recycler parks released buffers of one element type where every
// goroutine sees them: a bounded stack under a mutex. A sync.Pool
// parks a buffer in the releasing processor's private slot, where a
// worker on another processor does not look, empties itself across
// garbage collections and drops entries at random under the race
// detector, so a fleet shard worker would now and then miss the pooled
// RAM and allocate a fresh buffer.
type recycler[T any] struct {
	mu   sync.Mutex
	free [][]T // most recently released last
}

// getTable returns a zeroed slice of n elements (a RAM buffer or a
// table): the most recently pooled one of that size, else a new one.
func getTable[T any](pool *recycler[T], n int) []T {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	for i := len(pool.free) - 1; i >= 0; i-- {
		if t := pool.free[i]; len(t) == n {
			pool.free = slices.Delete(pool.free, i, i+1)
			return t
		}
	}
	return make([]T, n)
}

// putTable clears t and returns it to pool if it has n entries.
func putTable[T any](pool *recycler[T], t []T, n int) {
	if len(t) == n {
		clear(t)
		pool.put(t)
	}
}

// put parks the zeroed slice t, dropping the oldest parked slice when
// the pool is full.
func (r *recycler[T]) put(t []T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.free) == recyclerCap {
		r.free = slices.Delete(r.free, 0, 1)
	}
	r.free = append(r.free, t)
}

// Release returns the machine's RAM buffer to the pool, zeroed up to
// the dirty watermark, and its default-size predecode table and its
// compiled-block table to theirs, cleared. The machine must not be used
// afterwards. Calling Release is optional — an un-released machine is
// simply collected by the GC.
func (m *Machine) Release() {
	putTable(&icachePool, m.icache, 1<<icacheBits)
	putTable(&sbcachePool, m.sbcache, sbSize)
	m.icache, m.sbcache = nil, nil
	b := m.ram
	m.ram = nil
	if b == nil {
		return
	}
	if m.ramHi > uint32(len(b)) {
		m.ramHi = uint32(len(b))
	}
	if int(m.ramHi) > len(m.dirty)<<dirtyPageBits<<6 {
		// RAM larger than the bitmap covers: clear the whole dirty
		// prefix. Does not happen for the default memory map.
		clear(b[:m.ramHi])
	} else {
		// Dirty pages are sparse (firmware low, task arena high): clear
		// only pages that saw a write since the buffer was fresh.
		for wi, word := range m.dirty {
			for word != 0 {
				bit := uint(0)
				for ; word&(1<<bit) == 0; bit++ {
				}
				word &^= 1 << bit
				lo := (uint32(wi)<<6 | uint32(bit)) << dirtyPageBits
				hi := lo + 1<<dirtyPageBits
				if hi > m.ramHi {
					hi = m.ramHi
				}
				if lo < hi {
					clear(b[lo:hi])
				}
			}
		}
	}
	m.dirty = [dirtyWords]uint64{}
	ramPool.put(b)
}

// icEntry is one predecoded instruction. Valid iff gen matches the
// machine generation (gen 0 never occurs: m.gen starts at 1).
type icEntry struct {
	pc  uint32
	gen uint32
	in  isa.Instruction
}

// execSpan memoizes a CheckExec "allow": any fetch whose source and
// target PC both lie in [lo, hi] is allowed while gen matches.
type execSpan struct {
	gen    uint32
	lo, hi uint32
}

// dataSpan memoizes a CheckData "allow" for one access kind: any access
// whose executing PC lies in [codeLo, codeHi] and whose first and last
// byte lie in [dataLo, dataHi] is allowed while gen matches.
type dataSpan struct {
	gen            uint32
	codeLo, codeHi uint32
	dataLo, dataHi uint32
}

// execHit is the exec-span cache's hit test: it reports whether the
// memoized span allows fetching pc after the instruction at lastPC, and
// returns the slot a miss refills.
func (m *Machine) execHit(pc uint32) (*execSpan, bool) {
	e := &m.exec[(pc>>8)*hashMul>>(32-execBits)]
	return e, e.gen == m.gen && e.lo <= pc && pc <= e.hi && e.lo <= m.lastPC && m.lastPC <= e.hi
}

// dataHit is the decision cache's hit test: it reports whether the
// memoized span allows code at pc the access of size bytes at addr, and
// returns the slot a miss refills. The index mixes execution context
// and target page: the Int Mux touches every task's context-save area
// from one fixed PC, so a PC-only index would alternate between spans
// on every context switch.
func (m *Machine) dataHit(kind eampu.AccessKind, pc, addr, size uint32) (*dataSpan, bool) {
	e := &m.dcache[kind][(pc^addr>>8)*hashMul>>(32-dcacheBits)]
	last := addr + size - 1
	return e, e.gen == m.gen && e.codeLo <= pc && pc <= e.codeHi &&
		e.dataLo <= addr && addr <= last && last <= e.dataHi
}

// syncMPUGen folds EA-MPU reconfigurations into the machine generation.
func (m *Machine) syncMPUGen() {
	if g := m.MPU.Generation(); g != m.mpuGen {
		m.mpuGen = g
		m.bumpGen()
	}
}

// bumpGen invalidates every cached decode, decision and compiled block
// by advancing the generation. Stale entries can no longer match, so
// until the next fill there is no cached code to guard against writes.
func (m *Machine) bumpGen() {
	m.gen++
	m.genBumps++
	m.codeLo, m.codeHi = eampu.MaxAddr, 0
	m.sbLo, m.sbHi = eampu.MaxAddr, 0
}

// GrowICacheForText widens the predecode table so textBytes more bytes
// of loaded code fit without alias thrashing; the loader calls it with
// each image's text size. Growth accumulates (several co-resident
// tasks), is clamped to icacheMaxBits, and never shrinks. Reallocation
// is sound at any point: entries are gen-tagged and refill on demand,
// so dropping the old table only costs decode misses, never a wrong
// decode.
func (m *Machine) GrowICacheForText(textBytes uint32) {
	m.textBytes += textBytes
	bits := uint32(icacheBits)
	for bits < icacheMaxBits && uint32(4)<<bits < m.textBytes {
		bits++
	}
	if mask := uint32(1)<<bits - 1; mask > m.icMask {
		m.icMask = mask
		putTable(&icachePool, m.icache, 1<<icacheBits)
		m.icache = nil // reallocated lazily at the new size
		m.codeLo, m.codeHi = eampu.MaxAddr, 0
	}
}

// noteRAMWrite is called by every path that mutates RAM with the byte
// offset and length of the write (it also maintains the dirty-RAM
// watermark that Release uses to recycle the buffer). A write outside
// [codeLo, codeHi] — the address range holding cached code this
// generation — cannot touch a cached line and costs one range check;
// that covers ordinary data and stack traffic. Inside the range, a
// cached line covering any written byte must map to one of the table
// slots whose word index falls in [firstWord-2, lastWord] (an entry
// starting up to 7 bytes before the write can still cover it), so
// probing those slots detects every overlap. A write that truly lands
// in cached code — self-modifying code, a reloaded task image —
// advances the generation.
func (m *Machine) noteRAMWrite(off, n int) {
	if n <= 0 {
		return
	}
	if hi := uint32(off) + uint32(n); hi > m.ramHi {
		m.ramHi = hi
	}
	p0 := uint32(off) >> dirtyPageBits
	if p1 := (uint32(off) + uint32(n) - 1) >> dirtyPageBits; p1 == p0 {
		m.dirty[(p0>>6)%dirtyWords] |= 1 << (p0 & 63)
	} else if int(p1>>6) < len(m.dirty) {
		for p := p0; p <= p1; p++ {
			m.dirty[p>>6] |= 1 << (p & 63)
		}
	}
	a := RAMBase + uint32(off)
	last := a + uint32(n) - 1
	// Compiled superblocks read their text at compile time, not through
	// the predecode table, so they need their own overlap test: a write
	// into any granule holding compiled code this generation invalidates
	// everything. Checked before the icache early-exit below — a block
	// may cover code the predecode table never saw.
	if last >= m.sbLo && a <= m.sbHi {
		g0 := (a - RAMBase) >> sbPageBits
		g1 := (last - RAMBase) >> sbPageBits
		for g := g0; g <= g1 && int(g) < len(m.sbPages); g++ {
			if m.sbPages[g] == m.gen {
				m.sbInvalidations++
				m.bumpGen()
				break
			}
		}
	}
	if last < m.codeLo || a > m.codeHi {
		return
	}
	w0 := a>>2 - 2
	w1 := last >> 2
	for w := w0; w <= w1; w++ {
		e := &m.icache[w&m.icMask]
		if e.gen == m.gen && e.pc <= last && a <= e.pc+e.in.Width()-1 {
			m.bumpGen()
			return
		}
	}
}

// decodeAt decodes the instruction at pc directly from RAM without
// copying. The 8-byte decode window is clamped once at the end of RAM
// (isa.Decode needs 4 bytes, or 8 for LDI32, and reports truncation
// itself), replacing the old allocate-copy-retry dance in fetch.
func (m *Machine) decodeAt(pc uint32) (isa.Instruction, *Fault) {
	if pc < RAMBase {
		return isa.Instruction{}, &Fault{PC: pc, Why: "instruction fetch",
			Wrap: &BusError{Addr: pc, Why: "unmapped low memory"}}
	}
	off := uint64(pc - RAMBase)
	if off+4 > uint64(len(m.ram)) {
		return isa.Instruction{}, &Fault{PC: pc, Why: "instruction fetch",
			Wrap: &BusError{Addr: pc, Why: "beyond end of RAM"}}
	}
	end := off + 8
	if end > uint64(len(m.ram)) {
		end = uint64(len(m.ram))
	}
	in, _, derr := isa.Decode(m.ram[off:end])
	if derr != nil || !in.Op.Valid() {
		return isa.Instruction{}, &Fault{PC: pc, Why: "illegal instruction"}
	}
	return in, nil
}

// fetchFast is the cached fetch: an O(1) exec-permission span test plus
// a direct-mapped predecode lookup. It returns a pointer to the table
// entry's decoded form, which it hit or just filled. Every miss goes
// through the exact reference checks, so faults are identical to the
// slow path.
func (m *Machine) fetchFast() (*isa.Instruction, *Fault) {
	m.syncMPUGen()
	pc := m.eip
	if e, ok := m.execHit(pc); !ok {
		if err := m.MPU.CheckExec(m.lastPC, pc, !m.branched); err != nil {
			return nil, &Fault{PC: pc, Why: "instruction fetch", Wrap: err}
		}
		lo, hi := m.MPU.ExecSpan(pc)
		*e = execSpan{gen: m.gen, lo: lo, hi: hi}
		m.execSpanFills++
	}
	if m.icache == nil {
		m.icache = getTable[icEntry](&icachePool, int(m.icMask)+1)
	}
	ic := &m.icache[(pc>>2)&m.icMask]
	if ic.gen == m.gen && ic.pc == pc {
		return &ic.in, nil
	}
	m.decodeMisses++
	in, fault := m.decodeAt(pc)
	if fault != nil {
		return nil, fault
	}
	*ic = icEntry{pc: pc, gen: m.gen, in: in}
	if pc < m.codeLo {
		m.codeLo = pc
	}
	if end := pc + in.Width() - 1; end > m.codeHi {
		m.codeHi = end
	}
	return &ic.in, nil
}

// wordsFast serves aligned RAM word accesses from the decision cache:
// when one hit allows every byte of the n words at addr, it returns
// their RAM offset and the caller moves them straight in m.ram (a
// writer notes the span with noteRAMWrite). ok=false falls back to the
// reference bus path, word by word, including all fault cases, which
// stay byte-for-byte identical.
func (m *Machine) wordsFast(kind eampu.AccessKind, addr uint32, n int) (int, bool) {
	if !m.FastPath || n == 0 || addr&3 != 0 || addr < RAMBase {
		return 0, false
	}
	off := addr - RAMBase
	size := 4 * uint64(n)
	if uint64(off)+size > uint64(len(m.ram)) {
		return 0, false
	}
	m.syncMPUGen()
	_, ok := m.dataHit(kind, m.execPC, addr, uint32(size))
	return int(off), ok
}

// checkData dispatches a data-access check through the decision cache
// (fast path) or straight to the EA-MPU (reference path). kind must be
// AccessRead or AccessWrite.
func (m *Machine) checkData(kind eampu.AccessKind, addr, size uint32) error {
	if !m.FastPath {
		return m.MPU.CheckData(m.execPC, kind, addr, size)
	}
	m.syncMPUGen()
	pc := m.execPC
	e, hit := m.dataHit(kind, pc, addr, size)
	if hit {
		return nil
	}
	m.dataSpanFills++
	if err := m.MPU.CheckData(pc, kind, addr, size); err != nil {
		return err
	}
	dLo, dHi := m.MPU.DataSpan(addr)
	if last := addr + size - 1; last < dLo || last > dHi {
		// The access straddles a covering-set boundary; the combined
		// verdict has no constant span, so leave the cache alone.
		return nil
	}
	cLo, cHi := m.MPU.CodeSpan(pc)
	*e = dataSpan{gen: m.gen, codeLo: cLo, codeHi: cHi, dataLo: dLo, dataHi: dHi}
	return nil
}
