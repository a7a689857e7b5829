package benchlab

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
)

// The adaptive cruise control use case (Figure 2 / Table 1): task t1
// monitors the accelerator pedal, task t0 runs the engine control law,
// and task t2 — the radar monitor — is loaded on demand when the driver
// activates cruise control. Loading t2 takes longer than one scheduling
// period, so it would break t0/t1's deadlines if it were not
// interruptible.

// Activation tags written to the engine actuator by each task.
const (
	tagT0 = 1
	tagT1 = 2
	tagT2 = 3
)

// useCasePeriod is the sleep each task performs per activation; with
// scheduling overheads it yields ≈1.5 kHz.
const useCasePeriod = 31_200

// UseCaseResult is the Table 1 measurement: activation rates (kHz) of
// the three tasks in the three phases, plus the load's footprint.
type UseCaseResult struct {
	// Rates[task][phase]: task ∈ {t0, t1, t2}, phase ∈ {before, while,
	// after}. Zero where the paper prints "—".
	RateT0 [3]float64
	RateT1 [3]float64
	RateT2 [3]float64

	// LoadWorkCycles is the pure loading work (what the paper quotes as
	// 27.8 ms); LoadElapsedCycles is wall-clock from request to
	// schedulability while sharing the CPU with t0/t1.
	LoadWorkCycles    uint64
	LoadElapsedCycles uint64

	// MaxGapDuringLoad is the worst t0 inter-activation gap while the
	// load was in flight (deadline-jitter proxy).
	MaxGapDuringLoad uint64

	// Missed counts t0 activations lost during loading relative to the
	// nominal rate (0 for interruptible loading).
	Missed int

	// Instructions and TotalCycles are the guest instruction and cycle
	// totals for the whole run — the benchmark derives host-MIPS
	// (guest instructions retired per host second) from them.
	Instructions uint64
	TotalCycles  uint64
}

// LoadMillis converts the load work to milliseconds at the platform
// clock.
func (r UseCaseResult) LoadMillis() float64 {
	return float64(r.LoadWorkCycles) / machine.ClockHz * 1000
}

// RunUseCase executes the full scenario. atomicLoading selects the
// SMART/SPM-style non-interruptible loader (the ablation); false is
// TyTAN.
func RunUseCase(atomicLoading bool) (UseCaseResult, error) {
	var res UseCaseResult
	opt := core.Options{EngineHistory: 1 << 16}
	if atomicLoading {
		opt.LoaderQuantum = 1 << 40
	}
	p := mustPlatform(opt)
	defer p.Close()

	t0 := UseCaseTaskImage(tagT0, useCasePeriod)
	t0.Name = "t0"
	t1 := UseCaseTaskImage(tagT1, useCasePeriod)
	t1.Name = "t1"
	if _, _, err := p.LoadTaskSync(t0, core.Secure, 5); err != nil {
		return res, err
	}
	if _, _, err := p.LoadTaskSync(t1, core.Secure, 5); err != nil {
		return res, err
	}

	const window = 64 * core.DefaultTickPeriod

	// Phase 1: before loading t2.
	s1 := p.Cycles()
	if err := p.Run(window); err != nil {
		return res, err
	}
	e1 := p.Cycles()

	// Phase 2: while loading t2 (the driver just activated cruise
	// control).
	req := p.LoadTaskAsync(UseCaseT2Image(tagT2, useCasePeriod), core.Secure, 4)
	s2 := p.Cycles()
	for !req.Done() && p.Cycles() < s2+100*window {
		if err := p.Run(core.DefaultTickPeriod); err != nil {
			return res, err
		}
	}
	if !req.Done() {
		return res, fmt.Errorf("benchlab: t2 load never completed")
	}
	if req.Err() != nil {
		return res, req.Err()
	}
	e2 := p.Cycles()

	// Phase 3: after loading.
	s3 := p.Cycles()
	if err := p.Run(window); err != nil {
		return res, err
	}
	e3 := p.Cycles()

	res.LoadWorkCycles = req.Breakdown.Total()
	res.LoadElapsedCycles = req.EndCycle - req.StartCycle

	// One pass over the engine command log: every command is one
	// activation of the task whose tag it carries. Count each task's
	// activations per phase window [from, to), and collect t0's
	// inter-activation gaps around phase 2 for the jitter figures. That
	// window extends slightly past the load so that a stall spanning
	// the whole load (the atomic ablation) shows up as one giant gap
	// between the last pre-load and first post-load activation rather
	// than as an empty window.
	windows := [3][2]uint64{{s1, e1}, {s2, e2}, {s3, e3}}
	jFrom := s2 - 2*useCasePeriod
	jTo := e2 + 3*useCasePeriod
	if jTo > e3 {
		jTo = e3
	}
	var counts [3][3]int // [task][phase]
	var prev uint64
	havePrev := false
	for _, c := range p.Engine.Commands() {
		task := int(c.Value) - tagT0
		if task < 0 || task > 2 {
			continue
		}
		for i, w := range windows {
			if c.Cycle >= w[0] && c.Cycle < w[1] {
				counts[task][i]++
			}
		}
		if task != 0 || c.Cycle < jFrom || c.Cycle >= jTo {
			continue
		}
		if havePrev {
			g := c.Cycle - prev
			res.MaxGapDuringLoad = max(res.MaxGapDuringLoad, g)
			// Missed deadlines: every inter-activation gap beyond 1.5
			// periods hides floor(gap/period)-1 lost activations.
			if g > useCasePeriod*3/2 {
				res.Missed += int(g/useCasePeriod) - 1
			}
		}
		prev = c.Cycle
		havePrev = true
	}
	// Activation rate in kHz at the platform clock.
	rate := func(n int, w [2]uint64) float64 {
		if w[1] <= w[0] {
			return 0
		}
		seconds := float64(w[1]-w[0]) / float64(machine.ClockHz)
		return float64(n) / seconds / 1000
	}
	for i, w := range windows {
		res.RateT0[i] = rate(counts[0][i], w)
		res.RateT1[i] = rate(counts[1][i], w)
		res.RateT2[i] = rate(counts[2][i], w)
	}
	res.Instructions = p.M.InsnRetired()
	res.TotalCycles = p.Cycles()
	return res, nil
}

// Table1UseCase regenerates Table 1.
func Table1UseCase() (Table, error) {
	r, err := RunUseCase(false)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Table 1: use-case evaluation (task activation rates, kHz)",
		Header: []string{"", "t1", "t2", "t0"},
	}
	fmtRate := func(v float64) string {
		if v == 0 {
			return "—"
		}
		return fmt.Sprintf("%.2f kHz", v)
	}
	phases := []string{"Before loading t2", "While loading t2", "After loading t2"}
	for i, name := range phases {
		t2cell := fmtRate(r.RateT2[i])
		if i < 2 {
			t2cell = "—"
		}
		t.AddRow(name, fmtRate(r.RateT1[i]), t2cell, fmtRate(r.RateT0[i]))
	}
	t.Note("paper: 1.5 kHz in every populated cell")
	t.Note("loading t2: %.1f ms of work (paper: 27.8 ms), %.1f ms elapsed while sharing the CPU",
		r.LoadMillis(), float64(r.LoadElapsedCycles)/machine.ClockHz*1000)
	t.Note("worst t0 activation gap while loading: %d cycles (period %d)", r.MaxGapDuringLoad, useCasePeriod)
	return t, nil
}
