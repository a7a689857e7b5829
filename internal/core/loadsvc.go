package core

import (
	"errors"
	"fmt"

	"repro/internal/loader"
	"repro/internal/machine"
	"repro/internal/rtos"
	"repro/internal/sha1"
	"repro/internal/sverify"
	"repro/internal/telf"
	"repro/internal/trace"
	"repro/internal/trusted"
)

// The loader service performs dynamic task loading as a background
// service task, in bounded micro-steps: §4's loading sequence
//
//	(1) allocate memory → (2) load + relocate → (3) prepare stack →
//	(4) configure EA-MPU → (5) measure → (6) notify the scheduler
//
// with every long phase (copy, relocation, measurement) interruptible.
// The paper's use case (§6, Table 1) depends on exactly this: loading
// t2 takes 27.8 ms, "longer than the time available between two
// scheduling cycles of t0 and t1", yet both keep their 1.5 kHz
// deadlines because loading can be pre-empted at any quantum boundary.

// loaderQuantum caps the work one Step performs, bounding the service's
// contribution to scheduling latency (about one SHA-1 block).
const loaderQuantum = 4_096

// LoadPhase identifies the current stage of an asynchronous load.
type LoadPhase int

// Load phases in execution order.
const (
	LoadPending  LoadPhase = iota // queued, not started
	LoadVerify                    // static verification (strict gate only)
	LoadAlloc                     // allocating memory
	LoadStream                    // copying, zeroing, relocating
	LoadInstall                   // stack preparation + TCB
	LoadProtect                   // EA-MPU configuration
	LoadMeasure                   // RTM measurement
	LoadSchedule                  // scheduler notification
	LoadDone
	LoadFailed
)

// String names the phase.
func (ph LoadPhase) String() string {
	switch ph {
	case LoadPending:
		return "pending"
	case LoadVerify:
		return "verify"
	case LoadAlloc:
		return "alloc"
	case LoadStream:
		return "stream"
	case LoadInstall:
		return "install"
	case LoadProtect:
		return "protect"
	case LoadMeasure:
		return "measure"
	case LoadSchedule:
		return "schedule"
	case LoadDone:
		return "done"
	case LoadFailed:
		return "failed"
	default:
		return fmt.Sprintf("phase(%d)", int(ph))
	}
}

// LoadBreakdown is the per-phase cycle accounting of one load — the
// columns of Table 4.
type LoadBreakdown struct {
	Verify   uint64 // static verification (zero unless the strict gate is armed)
	Alloc    uint64
	Copy     uint64 // streaming + BSS zeroing
	Reloc    uint64 // relocation fixups (Table 4 "Relocation")
	Install  uint64 // stack preparation + TCB + scheduler structures
	Protect  uint64 // EA-MPU configuration (Table 4 "EA-MPU")
	Measure  uint64 // RTM measurement (Table 4 "RTM")
	Schedule uint64 // final scheduler notification
}

// Total sums the phases — Table 4 "Overall".
func (b LoadBreakdown) Total() uint64 {
	return b.Verify + b.Alloc + b.Copy + b.Reloc + b.Install + b.Protect + b.Measure + b.Schedule
}

// LoadRequest tracks one (possibly in-flight) load.
type LoadRequest struct {
	im   *telf.Image
	kind rtos.TaskKind
	prio int

	phase    LoadPhase
	base     uint32
	job      *loader.Job
	mjob     *trusted.MeasureJob
	tcb      *rtos.TCB
	identity sha1.Digest
	report   *sverify.Report // verification report (strict gate only)
	err      error
	done     func(*rtos.TCB, error) // called once when the load ends (may be nil)

	// StartCycle is when the loader began work; EndCycle when the task
	// became schedulable.
	StartCycle uint64
	EndCycle   uint64

	Breakdown LoadBreakdown
}

func newLoadRequest(im *telf.Image, kind rtos.TaskKind, prio int) *LoadRequest {
	return &LoadRequest{im: im, kind: kind, prio: prio, phase: LoadPending}
}

// Done reports whether the load finished (successfully or not).
func (r *LoadRequest) Done() bool { return r.phase == LoadDone || r.phase == LoadFailed }

// Err returns the failure, if any.
func (r *LoadRequest) Err() error { return r.err }

// Phase returns the current phase.
func (r *LoadRequest) Phase() LoadPhase { return r.phase }

// Task returns the loaded task after completion.
func (r *LoadRequest) Task() *rtos.TCB { return r.tcb }

// Identity returns the measured identity (secure tasks only).
func (r *LoadRequest) Identity() sha1.Digest { return r.identity }

// end hands the load's outcome to its done callback, if any: the new
// task, schedulable but not yet run, or the error that ended the load.
func (r *LoadRequest) end() {
	if r.done != nil {
		r.done(r.tcb, r.err)
	}
}

// loaderService is the OS's background loading task.
type loaderService struct {
	p       *Platform
	queue   []*LoadRequest
	quantum uint64
}

func newLoaderService(p *Platform, quantum uint64) *loaderService {
	if quantum == 0 {
		quantum = loaderQuantum
	}
	return &loaderService{p: p, quantum: quantum}
}

// HasWork implements the kernel's wakeable probe.
func (s *loaderService) HasWork() bool { return len(s.queue) > 0 }

func (s *loaderService) enqueue(r *LoadRequest) { s.queue = append(s.queue, r) }

// atomicThreshold: a quantum at or above this makes the loader
// non-interruptible (it runs each load to completion in one dispatch,
// ignoring the scheduler) — the SMART/SPM-style ablation.
const atomicThreshold = 1 << 30

// Step implements rtos.Service: advance the front request by one
// bounded quantum.
func (s *loaderService) Step(k *rtos.Kernel, self *rtos.TCB, budget uint64) (uint64, rtos.NativeStatus) {
	if len(s.queue) == 0 {
		return 0, rtos.NativeIdle
	}
	req := s.queue[0]
	if s.quantum >= atomicThreshold {
		// Atomic loading: hold the CPU until the load completes, exactly
		// what a non-interruptible measurement forces. A failure stays on
		// the request.
		s.runSync(req)
		s.queue = s.queue[1:]
		if len(s.queue) == 0 {
			return 0, rtos.NativeIdle
		}
		return 0, rtos.NativeReady
	}
	if budget > s.quantum {
		budget = s.quantum
	}
	used := s.advance(req, budget)
	if req.Done() {
		s.queue = s.queue[1:]
		if len(s.queue) == 0 {
			return used, rtos.NativeIdle
		}
	}
	return used, rtos.NativeReady
}

// runSync drives a request to completion without yielding the CPU (the
// non-interruptible path used by LoadTaskSync, the creation benchmarks
// and atomic loading). Cycles are charged phase by phase so the
// request's timestamps stay truthful.
func (s *loaderService) runSync(req *LoadRequest) error {
	for !req.Done() {
		used := s.advance(req, 1<<30)
		s.p.M.Charge(used)
	}
	return req.err
}

// setPhase transitions a request and reports the new phase on the
// platform's observability sink. Terminal phases (done, failed) emit
// richer events from their transition sites instead.
func (s *loaderService) setPhase(req *LoadRequest, ph LoadPhase) {
	req.phase = ph
	if ph == LoadDone || ph == LoadFailed {
		return
	}
	if s.p.M.Obs != nil {
		s.p.M.Emit(trace.SubLoader, trace.KindLoadPhase, req.im.Name, trace.Str("phase", ph.String()))
	}
}

// fail transitions a request into LoadFailed, releasing whatever it
// holds. A partially-streamed job is aborted first — relocations
// reverted, the touched extent scrubbed — so the region goes back to the
// allocator with no remnants of the dead task's code.
func (s *loaderService) fail(req *LoadRequest, err error) uint64 {
	req.err = fmt.Errorf("%w: %w", ErrLoadFailed, err)
	failedIn := req.phase
	req.phase = LoadFailed
	if s.p.M.Obs != nil {
		s.p.M.Emit(trace.SubLoader, trace.KindLoadPhase, req.im.Name,
			trace.Str("phase", "failed"),
			trace.Str("in", failedIn.String()),
			trace.Str("err", err.Error()))
	}
	var used uint64
	if req.job != nil && !req.job.Aborted() {
		// Best effort: if the teardown itself faults (the bus is the
		// thing that failed), the partial cost is still charged.
		cost, _ := req.job.Abort()
		used += cost
	}
	if req.tcb != nil {
		s.p.K.Unload(req.tcb.ID)
		req.tcb = nil
	} else if req.base != 0 {
		s.p.K.Alloc.Free(req.base)
	}
	req.end()
	return used
}

// advance performs at most budget cycles of work on req and returns the
// cycles the kernel must charge (phases that charge the machine
// directly — driver, kernel primitives — return deltas of zero and are
// recorded in the breakdown via the cycle counter instead).
func (s *loaderService) advance(req *LoadRequest, budget uint64) uint64 {
	p := s.p
	switch req.phase {
	case LoadPending:
		req.StartCycle = p.M.Cycles()
		if p.C != nil && p.C.Gate != nil {
			s.setPhase(req, LoadVerify)
		} else {
			s.setPhase(req, LoadAlloc)
		}
		return 0

	case LoadVerify:
		// The strict gate: refuse to allocate, measure or install an
		// image the static verifier proves broken. The verification
		// cost is charged whether the image passes or not.
		gate := p.C.Gate
		cost := gate.Cost(req.im)
		req.Breakdown.Verify += cost
		rep, err := gate.Check(req.im)
		if err != nil {
			if p.M.Obs != nil {
				info, warn, errs := rep.Counts()
				attrs := []trace.Attr{
					trace.Num("errors", uint64(errs)),
					trace.Num("warnings", uint64(warn)),
					trace.Num("notes", uint64(info)),
				}
				var be *loader.BoundsError
				if errors.As(err, &be) {
					// Resource-bound refusal: the typed reason names
					// which admission rule failed.
					attrs = append(attrs, trace.Str("reason", be.Reason))
				} else if errFindings := rep.Errors(); len(errFindings) > 0 {
					attrs = append(attrs, trace.Str("first", errFindings[0].Code))
				}
				p.M.Emit(trace.SubLoader, trace.KindVerifyDenied, req.im.Name, attrs...)
			}
			return cost + s.fail(req, err)
		}
		req.report = rep
		s.setPhase(req, LoadAlloc)
		return cost

	case LoadAlloc:
		base, scanned, err := p.K.Alloc.Alloc(loader.PlacedSize(req.im))
		if err != nil {
			return s.fail(req, err)
		}
		req.base = base
		req.job = loader.NewJob(p.M, req.im, base)
		cost := machine.CostAllocBase + uint64(scanned)*machine.CostAllocPerRegion
		req.Breakdown.Alloc += cost
		s.setPhase(req, LoadStream)
		return cost

	case LoadStream:
		used, err := req.job.Step(budget)
		if err != nil {
			return s.fail(req, err)
		}
		if req.job.Done() {
			// The job accounts its own phases precisely.
			req.Breakdown.Copy = req.job.CopyCost() + req.job.ZeroCost()
			req.Breakdown.Reloc = req.job.RelocCost()
			s.setPhase(req, LoadInstall)
		}
		return used

	case LoadInstall:
		before := p.M.Cycles()
		tcb, err := p.K.InstallTaskSuspended(req.im.Name, req.kind, req.prio, req.job.Placement())
		if err != nil {
			return s.fail(req, err)
		}
		req.tcb = tcb
		req.Breakdown.Install += p.M.Cycles() - before
		if p.C != nil {
			s.setPhase(req, LoadProtect)
		} else {
			s.setPhase(req, LoadSchedule)
		}
		return 0

	case LoadProtect:
		before := p.M.Cycles()
		if _, err := p.C.Driver.ProtectTask(req.tcb); err != nil {
			return s.fail(req, err)
		}
		req.Breakdown.Protect += p.M.Cycles() - before
		if req.kind == rtos.KindSecure {
			req.mjob = p.C.RTM.NewMeasureJob(req.im, req.base, nil)
			s.setPhase(req, LoadMeasure)
		} else {
			s.setPhase(req, LoadSchedule)
		}
		return 0

	case LoadMeasure:
		used, err := req.mjob.Step(budget)
		if err != nil {
			return s.fail(req, err)
		}
		req.Breakdown.Measure += used
		if req.mjob.Done() {
			id, _ := req.mjob.Identity()
			req.identity = id
			entry := p.C.RTM.Register(req.tcb, req.im, req.job.Placement(), id)
			if req.report != nil {
				entry.Bounds = req.report.Bounds
			}
			s.setPhase(req, LoadSchedule)
		}
		return used

	case LoadSchedule:
		before := p.M.Cycles()
		if err := p.K.Resume(req.tcb.ID); err != nil {
			return s.fail(req, err)
		}
		req.Breakdown.Schedule += p.M.Cycles() - before
		req.EndCycle = p.M.Cycles()
		req.phase = LoadDone
		if p.M.Obs != nil {
			// The terminal event carries the full Table 4 breakdown (the
			// profile attributes load cycles to phases from it) and the
			// request-to-schedulable latency (analyze.Sample's load
			// sample, for the histogram and online SLO rules).
			b := req.Breakdown
			p.M.Emit(trace.SubLoader, trace.KindLoadPhase, req.im.Name,
				trace.Str("phase", "done"),
				trace.Num("verify", b.Verify),
				trace.Num("alloc", b.Alloc),
				trace.Num("copy", b.Copy),
				trace.Num("reloc", b.Reloc),
				trace.Num("install", b.Install),
				trace.Num("protect", b.Protect),
				trace.Num("measure", b.Measure),
				trace.Num("schedule", b.Schedule),
				trace.Num("total", b.Total()),
				trace.Num("latency", req.EndCycle-req.StartCycle))
		}
		req.end()
		return 0
	}
	return 0
}
