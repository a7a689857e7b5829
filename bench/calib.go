package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed reference. The shared 2-vCPU sandboxes this benchmark
// runs on change speed for seconds to minutes at a time: one kernel
// pass measured 3.2 ms and 6.5 ms an hour apart, with almost no steal
// time reported. So the runner times a fixed computation that never
// changes with the repository between ops, and reports host times at
// the reference's nominal speed: measured × refScale(reference).
//
// The reference is a closure-dispatched bytecode loop, the same kind
// of work as the simulator's engine, run once over 256 KiB and once
// over 4 MiB of memory. It is timed in its OS thread's CPU time, not in
// wall time: a slower host slows that CPU time, but goroutines of this
// process that preempt the reference (garbage collection, goroutines or
// timers a change leaves running) do not, so their cost stays in the
// metrics instead of being divided out.

// refNominalUS is the reference's CPU time on a quiet 2-vCPU sandbox
// (Xeon, KVM), where the bounds were set.
const refNominalUS = 2050.0

// refExponent is how much faster the workloads slow than the reference
// under host interference. Over 1,329 one-second windows from two sets
// of runs of all four workloads, log op time rose 1.25 to 1.62 times as
// fast as log reference time, per workload and set (correlation 0.90
// to 0.95).
const refExponent = 1.4

// refScale converts host time measured while the reference read ref µs
// to time at nominal speed. It depends on the reference alone, so a
// program that does k times the work still reads k times slower.
func refScale(ref float64) float64 {
	return math.Pow(refNominalUS/ref, refExponent)
}

const refProg = 64 << 10 // ops per pass

type refVM struct {
	r    [8]uint32
	mem  []byte
	mask uint32 // len(mem) - 1
}

var (
	refOps  [8]func(*refVM, uint8)
	refCode []uint8
	refVMs  = [2]*refVM{
		{mem: make([]byte, 256<<10), mask: 256<<10 - 1},
		{mem: make([]byte, 4<<20), mask: 4<<20 - 1},
	}
)

func init() {
	refOps = [8]func(*refVM, uint8){
		func(v *refVM, a uint8) { v.r[a&7] += v.r[a>>3&7] + 1 },
		func(v *refVM, a uint8) { v.r[a&7] ^= v.r[a>>3&7] * 2654435761 },
		func(v *refVM, a uint8) {
			p := v.r[a&7] & v.mask &^ 3
			v.r[a>>3&7] = uint32(v.mem[p]) | uint32(v.mem[p+1])<<8
		},
		func(v *refVM, a uint8) { v.mem[v.r[a>>3&7]&v.mask] = byte(v.r[a&7]) },
		func(v *refVM, a uint8) {
			if v.r[a&7]&1 == 0 {
				v.r[a>>3&7]++
			} else {
				v.r[a>>3&7] >>= 1
			}
		},
		func(v *refVM, a uint8) { v.r[a&7] = v.r[a&7]<<3 | v.r[a&7]>>29 },
		func(v *refVM, a uint8) { v.r[a>>3&7] += uint32(v.mem[(v.r[a&7]*64)&(v.mask&^63)+7]) },
		func(v *refVM, a uint8) { v.r[a>>3&7] -= v.r[a&7] },
	}
	// A fixed pseudo-random program (splitmix64), two bytes per op.
	refCode = make([]uint8, 2*refProg)
	x := uint64(0x7E57)
	for i := range refCode {
		x += 0x9E3779B97F4A7C15
		z := (x ^ x>>30) * 0xBF58476D1CE4E5B9
		refCode[i] = uint8((z ^ z>>27) >> 56)
	}
}

// refSample runs both reference passes once and returns the CPU time
// their thread spent on them, in µs.
func refSample() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	for _, v := range refVMs {
		for i := 0; i+1 < len(refCode); i += 2 {
			refOps[refCode[i]&7](v, refCode[i+1])
		}
	}
	return usOf(threadCPU() - start)
}

// threadCPU is the calling OS thread's CPU time (Linux
// CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// refNow is the median of three reference samples: the host's current
// speed, for one set-up.
func refNow() float64 {
	s := []float64{refSample(), refSample(), refSample()}
	sort.Float64s(s)
	return s[1]
}
