// Package loader implements dynamic task loading: a first-fit physical
// memory allocator for the task pool and an *interruptible* relocating
// load job.
//
// FreeRTOS "operates on physical memory and the base address of a task
// changes depending on which memory regions are free at load time,
// making relocation necessary" (§4). The allocator reproduces that
// behaviour; the load job streams the TELF image into the allocated
// region in bounded micro-steps so that loading a task never blocks
// higher-priority real-time tasks (the property Table 1 demonstrates).
package loader

import (
	"errors"
	"fmt"
	"sort"
)

// Allocation errors.
var (
	ErrNoMemory    = errors.New("loader: out of task memory")
	ErrBadFree     = errors.New("loader: free of unallocated region")
	ErrZeroAlloc   = errors.New("loader: zero-size allocation")
	ErrPoolTooTiny = errors.New("loader: pool smaller than one granule")
)

// Granule is the allocation granularity in bytes. Task regions are
// granule-aligned so EA-MPU regions have clean bounds.
const Granule = 64

type span struct {
	start uint32
	size  uint32
}

// Strategy selects the placement policy.
type Strategy int

// Placement strategies.
const (
	// FirstFit takes the lowest-addressed hole that fits (FreeRTOS
	// heap_4-style; the default, and what the paper's base-address
	// variability comes from).
	FirstFit Strategy = iota
	// BestFit takes the smallest hole that fits, trading scan time for
	// lower external fragmentation under churn.
	BestFit
)

// Allocator is a physical-address pool allocator.
// It is not safe for concurrent use; the simulated kernel is single
// threaded by construction.
type Allocator struct {
	base     uint32
	limit    uint32
	strategy Strategy
	free     []span            // sorted by start, coalesced
	live     map[uint32]uint32 // start -> size of live allocations
}

// SetStrategy switches the placement policy (affects future Allocs
// only).
func (a *Allocator) SetStrategy(s Strategy) { a.strategy = s }

// NewAllocator manages [base, base+size).
func NewAllocator(base, size uint32) (*Allocator, error) {
	if size < Granule {
		return nil, ErrPoolTooTiny
	}
	return &Allocator{
		base:  base,
		limit: base + size,
		free:  []span{{start: base, size: size}},
		live:  make(map[uint32]uint32),
	}, nil
}

// roundUp rounds n up to the allocation granule.
func roundUp(n uint32) uint32 {
	return (n + Granule - 1) &^ uint32(Granule-1)
}

// Alloc reserves size bytes (rounded up to the granule) and returns the
// base address plus the number of free-list regions scanned — the
// kernel charges CostAllocBase + scanned·CostAllocPerRegion.
func (a *Allocator) Alloc(size uint32) (addr uint32, scanned int, err error) {
	if size == 0 {
		return 0, 0, ErrZeroAlloc
	}
	size = roundUp(size)
	pick := -1
	for i := range a.free {
		scanned++
		if a.free[i].size < size {
			continue
		}
		if a.strategy == FirstFit {
			pick = i
			break
		}
		// Best fit: smallest adequate hole; scan everything.
		if pick < 0 || a.free[i].size < a.free[pick].size {
			pick = i
		}
	}
	if pick < 0 {
		return 0, scanned, fmt.Errorf("%w: %d bytes requested", ErrNoMemory, size)
	}
	addr = a.free[pick].start
	a.free[pick].start += size
	a.free[pick].size -= size
	if a.free[pick].size == 0 {
		a.free = append(a.free[:pick], a.free[pick+1:]...)
	}
	a.live[addr] = size
	return addr, scanned, nil
}

// LargestHole returns the biggest currently allocatable request (the
// usable capacity under fragmentation, as opposed to FreeBytes).
func (a *Allocator) LargestHole() uint32 {
	var max uint32
	for _, s := range a.free {
		if s.size > max {
			max = s.size
		}
	}
	return max
}

// Free returns a region obtained from Alloc to the pool, coalescing
// neighbours.
func (a *Allocator) Free(addr uint32) error {
	size, ok := a.live[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadFree, addr)
	}
	delete(a.live, addr)
	a.free = append(a.free, span{start: addr, size: size})
	sort.Slice(a.free, func(i, j int) bool { return a.free[i].start < a.free[j].start })
	// Coalesce.
	out := a.free[:1]
	for _, s := range a.free[1:] {
		last := &out[len(out)-1]
		if last.start+last.size == s.start {
			last.size += s.size
		} else {
			out = append(out, s)
		}
	}
	a.free = out
	return nil
}

// SizeOf returns the size of a live allocation.
func (a *Allocator) SizeOf(addr uint32) (uint32, bool) {
	s, ok := a.live[addr]
	return s, ok
}

// FreeBytes returns the total free capacity.
func (a *Allocator) FreeBytes() uint32 {
	var n uint32
	for _, s := range a.free {
		n += s.size
	}
	return n
}

// Fragments returns the number of free-list spans (fragmentation
// metric used by the ablation benches).
func (a *Allocator) Fragments() int { return len(a.free) }
