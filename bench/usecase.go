package main

import (
	"fmt"
	"time"

	"repro/internal/benchlab"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/telf"
	"repro/internal/trace"
)

// The usecase workload: benchlab.RunUseCase(false) back to back on one
// goroutine — the paper's Table 1 scenario. Every run must reproduce
// useCaseGolden exactly.

// useCaseWarmup is how many runs each set-up performs.
const useCaseWarmup = 20

// The use case's task tags and period (benchlab's unexported
// constants), for the traced replay.
const (
	tagT0         = 1
	tagT1         = 2
	tagT2         = 3
	useCasePeriod = 31_200
)

// Paper reference for Table 1 (§6): loading t2 takes 27.8 ms of work,
// and every task activates at 1.5 kHz.
const (
	paperLoadMS  = 27.8
	paperRateKHz = 1.5
)

func checkUseCase(res benchlab.UseCaseResult) error {
	if res != useCaseGolden {
		return fmt.Errorf("usecase digest %+v differs from golden %+v", res, useCaseGolden)
	}
	return nil
}

func runUseCase(r *runState) error {
	err := r.setup(func() error {
		for i := 0; i < useCaseWarmup; i++ {
			res, err := benchlab.RunUseCase(false)
			if err != nil {
				return err
			}
			if err := checkUseCase(res); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var last benchlab.UseCaseResult
	ops, _, alloc := r.loop(func(w *window) error {
		start := time.Now()
		res, err := benchlab.RunUseCase(false)
		d := time.Since(start)
		w.lat = append(w.lat, usOf(d))
		w.busy += d
		if err != nil {
			return err
		}
		w.ops++
		last = res
		return checkUseCase(res)
	})
	r.summarizeWindows()
	r.info["alloc_kb_per_op"] = float64(alloc) / 1024 / float64(ops)
	r.info["guest_mips"] = float64(last.Instructions) * r.metrics["ops_per_s"] / 1e6
	useCaseGuest(r, last)
	return nil
}

// useCaseGuest records the guest digest and the paper-reference fields.
func useCaseGuest(r *runState, res benchlab.UseCaseResult) {
	r.guest["guest_cycles_per_op"] = float64(res.TotalCycles)
	r.guest["guest_insns_per_op"] = float64(res.Instructions)
	r.guest["load_cycles"] = float64(res.LoadWorkCycles)
	r.guest["load_elapsed_cycles"] = float64(res.LoadElapsedCycles)
	r.guest["rate_t0_while_loading_khz"] = res.RateT0[1]
	r.guest["rate_t1_while_loading_khz"] = res.RateT1[1]
	r.info["paper_load_ms"] = paperLoadMS
	r.info["load_ms"] = res.LoadMillis()
	r.info["load_error_pct"] = (res.LoadMillis() - paperLoadMS) / paperLoadMS * 100
	r.info["paper_rate_khz"] = paperRateKHz
	for i, phase := range []string{"before", "while", "after"} {
		r.info["rate_t0_"+phase+"_error_pct"] = (res.RateT0[i] - paperRateKHz) / paperRateKHz * 100
		r.info["rate_t1_"+phase+"_error_pct"] = (res.RateT1[i] - paperRateKHz) / paperRateKHz * 100
	}
}

// useCaseLayers is what one traced replay measured.
type useCaseLayers struct {
	res      benchlab.UseCaseResult
	boot     time.Duration
	loads    []time.Duration
	asyncLd  time.Duration
	tickTime time.Duration // phases 1 and 3
	ticks    uint64        // ticks in phases 1 and 3
	switches uint64
	allTicks uint64
	stats    machine.Stats
}

// replayUseCase runs the same phases as benchlab.RunUseCase with a span
// around each layer call.
func replayUseCase(tr *tracer, key string) (useCaseLayers, error) {
	var out useCaseLayers
	root := tr.begin("usecase.run", key, -1)
	defer tr.end(root)

	sp := tr.begin("core.boot", key, root)
	p, err := core.NewPlatform(core.Options{EngineHistory: 1 << 16})
	out.boot = tr.end(sp)
	if err != nil {
		return out, err
	}
	defer p.Close()

	t0 := benchlab.UseCaseTaskImage(tagT0, useCasePeriod)
	t0.Name = "t0"
	t1 := benchlab.UseCaseTaskImage(tagT1, useCasePeriod)
	t1.Name = "t1"
	for _, im := range []*telf.Image{t0, t1} {
		sp := tr.begin("core.load_sync", key, root)
		_, _, err := p.LoadTaskSync(im, core.Secure, 5)
		out.loads = append(out.loads, tr.end(sp))
		if err != nil {
			return out, err
		}
	}

	const window = 64 * core.DefaultTickPeriod
	runPhase := func() (uint64, uint64, error) {
		s, k := p.Cycles(), p.K.Ticks()
		sp := tr.begin("rtos.run", key, root)
		err := p.Run(window)
		out.tickTime += tr.end(sp)
		out.ticks += p.K.Ticks() - k
		return s, p.Cycles(), err
	}

	s1, e1, err := runPhase()
	if err != nil {
		return out, err
	}

	sp = tr.begin("loader.async_load", key, root)
	req := p.LoadTaskAsync(benchlab.UseCaseT2Image(tagT2, useCasePeriod), core.Secure, 4)
	s2 := p.Cycles()
	for !req.Done() && p.Cycles() < s2+100*window {
		if err = p.Run(core.DefaultTickPeriod); err != nil {
			break
		}
	}
	out.asyncLd = tr.end(sp)
	if err != nil {
		return out, err
	}
	if !req.Done() {
		return out, fmt.Errorf("t2 load never completed")
	}
	if req.Err() != nil {
		return out, req.Err()
	}
	e2 := p.Cycles()

	s3, e3, err := runPhase()
	if err != nil {
		return out, err
	}

	sp = tr.begin("benchlab.rates", key, root)
	res := &out.res
	log := new(trace.Buffer)
	for _, c := range p.Engine.Commands() {
		log.Emit(trace.Event{Cycle: c.Cycle, Sub: trace.SubHarness, Kind: trace.KindActivation, Subject: taskName(c.Value)})
	}
	rate := func(task string, from, to uint64) float64 {
		return log.RateKHz(trace.KindActivation, task, from, to, machine.ClockHz)
	}
	for i, w := range [3][2]uint64{{s1, e1}, {s2, e2}, {s3, e3}} {
		res.RateT0[i] = rate("t0", w[0], w[1])
		res.RateT1[i] = rate("t1", w[0], w[1])
		res.RateT2[i] = rate("t2", w[0], w[1])
	}
	res.LoadWorkCycles = req.Breakdown.Total()
	res.LoadElapsedCycles = req.EndCycle - req.StartCycle
	jFrom, jTo := s2-2*useCasePeriod, min(e2+3*useCasePeriod, e3)
	sub := new(trace.Buffer)
	for _, e := range log.Events() {
		if e.Subject == "t0" && e.Cycle >= jFrom && e.Cycle < jTo {
			sub.Emit(e)
		}
	}
	res.MaxGapDuringLoad = sub.MaxGap(trace.KindActivation, "t0")
	for _, g := range sub.Gaps(trace.KindActivation, "t0") {
		if g > useCasePeriod*3/2 {
			res.Missed += int(g/useCasePeriod) - 1
		}
	}
	res.Instructions = p.M.InsnRetired()
	res.TotalCycles = p.Cycles()
	tr.end(sp)

	out.switches = p.K.Switches()
	out.allTicks = p.K.Ticks()
	out.stats = p.M.Stats()
	return out, nil
}

// taskName maps an activation tag to its task, as RunUseCase does.
func taskName(v uint32) string {
	switch v {
	case tagT0:
		return "t0"
	case tagT1:
		return "t1"
	case tagT2:
		return "t2"
	}
	return fmt.Sprintf("t%d", v-1)
}

func traceUseCase(r *runState) error {
	tr := r.tracer
	var boot, load, async, tick, op, switches, ticks, compiles, fallbacks, bumps, misses, hitRatio []float64
	ops, elapsed, alloc := r.loop(func(*window) error {
		t := time.Now()
		l, err := replayUseCase(tr, fmt.Sprintf("run-%d", r.attempted))
		op = append(op, usOf(time.Since(t)))
		tr.fold()
		if err != nil {
			return err
		}
		boot = append(boot, usOf(l.boot))
		for _, d := range l.loads {
			load = append(load, usOf(d))
		}
		async = append(async, usOf(l.asyncLd))
		tick = append(tick, usOf(l.tickTime)/float64(l.ticks))
		switches = append(switches, float64(l.switches))
		ticks = append(ticks, float64(l.allTicks))
		compiles = append(compiles, float64(l.stats.SBCompiles))
		fallbacks = append(fallbacks, float64(l.stats.SBFallbacks))
		bumps = append(bumps, float64(l.stats.GenBumps))
		misses = append(misses, float64(l.stats.DecodeMisses))
		hitRatio = append(hitRatio, sbHitRatio(l.stats))
		return checkUseCase(l.res)
	})
	r.metrics["core.boot_us"] = median(boot)
	r.metrics["core.load_sync_us"] = median(load)
	r.metrics["loader.async_load_us"] = median(async)
	r.metrics["rtos.tick_us"] = median(tick)
	r.metrics["rtos.switches_per_op"] = median(switches)
	r.metrics["rtos.ticks_per_op"] = median(ticks)
	r.metrics["machine.sb_compiles_per_op"] = median(compiles)
	r.metrics["machine.sb_fallbacks_per_op"] = median(fallbacks)
	r.metrics["machine.gen_bumps_per_op"] = median(bumps)
	r.metrics["machine.decode_misses_per_op"] = median(misses)
	r.metrics["machine.sb_hit_ratio"] = median(hitRatio)
	r.metrics["traced.op_us_p50"] = median(op)
	r.metrics["traced.ops_per_s"] = float64(ops) / elapsed.Seconds()
	r.metrics["go.alloc_kb_per_op"] = float64(alloc) / 1024 / float64(ops)
	return nil
}
