// Command tytan-sim boots the simulated TyTAN platform, loads task
// images onto it, runs the scheduler for a while, and reports what
// happened: UART output, task states, and the attestation registry.
//
// Usage:
//
//	tytan-sim -describe                  # print the platform map (Figure 1)
//	tytan-sim task1.telf task2.telf      # load and run TELF images
//	tytan-sim -ms 50 -normal task.telf   # run 50 ms, load as normal task
//	tytan-sim -baseline task.telf        # unmodified-FreeRTOS baseline
//	tytan-sim -faults seed=7 task.telf   # seeded fault injection + recovery
//	tytan-sim -trace t.json task.telf    # export a Chrome trace of the run
//	tytan-sim -metrics m.prom task.telf  # export Prometheus-style metrics
//	tytan-sim -profile - task.telf       # print the cycle-attribution profile
//
// Secure update (build side and device side):
//
//	tytan-sim update sign -version 2 task.telf   # sign task.telf -> task.telf.upd
//	tytan-sim update info task.telf.upd          # inspect a package, no keys
//	tytan-sim -update task.telf.upd task.telf    # apply the update mid-run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/rtos"
	"repro/internal/telf"
	"repro/internal/trace"
	"repro/internal/trusted"
)

// config collects everything one run needs (the flag set, parsed).
type config struct {
	describe bool
	ms       float64
	itrace   int
	normal   bool
	baseline bool
	verify   bool
	prio     int
	verbose  bool
	faults   string
	// Exporter destinations; empty = off, "-" = stdout.
	tracePath   string
	metricsPath string
	profilePath string
	// SLO verification: spec file for the online monitor, and a
	// periodic deadline (cycles) registered for every loaded task.
	sloPath  string
	deadline uint64
	// Secure update: package path applied mid-run, and when (ms of
	// simulated time; 0 = halfway through the run).
	updatePath string
	updateAtMS float64
	files      []string
}

func main() {
	// The "update" subcommand family runs before flag parsing: its verbs
	// carry their own flag sets.
	if len(os.Args) > 1 && os.Args[1] == "update" {
		if err := runUpdateCmd(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tytan-sim:", err)
			os.Exit(1)
		}
		return
	}
	var cfg config
	flag.BoolVar(&cfg.describe, "describe", false, "print the booted platform's component map and exit")
	flag.Float64Var(&cfg.ms, "ms", 100, "simulated milliseconds to run")
	flag.IntVar(&cfg.itrace, "itrace", 0, "print the first N executed instructions (disassembled)")
	flag.BoolVar(&cfg.normal, "normal", false, "load images as normal (OS-accessible) tasks")
	flag.BoolVar(&cfg.baseline, "baseline", false, "boot the unmodified-FreeRTOS baseline")
	flag.BoolVar(&cfg.verify, "verify", false, "arm the strict pre-load gate: statically verify every image (see tytan-lint) and refuse broken ones before measurement; incompatible with -baseline")
	flag.IntVar(&cfg.prio, "prio", 3, "task priority (0-7)")
	flag.BoolVar(&cfg.verbose, "v", false, "print typed platform events as they happen")
	flag.StringVar(&cfg.faults, "faults", "", `seeded fault injection: "seed=N[,classes=bitflips+irqstorms][,period=N]" — corrupts task RAM and raises IRQ storms while the trusted supervisor restarts and quarantines faulting tasks`)
	flag.StringVar(&cfg.tracePath, "trace", "", `export the run's typed events as Chrome trace_event JSON to this file ("-" = stdout); load into chrome://tracing or Perfetto`)
	flag.StringVar(&cfg.metricsPath, "metrics", "", `export platform metrics in Prometheus text format to this file ("-" = stdout)`)
	flag.StringVar(&cfg.profilePath, "profile", "", `export the cycle-attribution profile (cycles per task and per load phase) to this file ("-" = stdout)`)
	flag.StringVar(&cfg.sloPath, "slo", "", `verify the run against an SLO spec file (see internal/analyze): rules are monitored online, the verdict printed after the run, and a violated spec makes the exit status non-zero`)
	flag.Uint64Var(&cfg.deadline, "deadline", 0, "register a periodic deadline of N cycles for every loaded task; misses are stamped as deadline-miss events")
	flag.StringVar(&cfg.updatePath, "update", "", `apply a signed update package (see "tytan-sim update sign") mid-run to the loaded task with the package's task name; a refused update (bad signature, downgrade, corruption, quarantine) makes the exit status non-zero`)
	flag.Float64Var(&cfg.updateAtMS, "update-at-ms", 0, "simulated time at which -update fires (0 = halfway through -ms)")
	flag.Parse()
	cfg.files = flag.Args()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tytan-sim:", err)
		os.Exit(1)
	}
}

// parseFaultSpec parses the -faults flag value (shared format with the
// chaos harness).
func parseFaultSpec(spec string) (faultinject.Config, error) {
	return faultinject.ParseSpec(spec)
}

// exportTo runs write against the named destination ("-" = stdout).
func exportTo(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(cfg config, stdout io.Writer) error {
	if cfg.verify && cfg.baseline {
		return fmt.Errorf("-verify needs the trusted platform (drop -baseline)")
	}
	p, err := core.NewPlatform(core.Options{Baseline: cfg.baseline, StrictVerify: cfg.verify})
	if err != nil {
		return err
	}
	var inj *faultinject.Injector
	if cfg.faults != "" {
		if cfg.baseline {
			return fmt.Errorf("-faults needs the trusted platform (drop -baseline)")
		}
		fcfg, err := parseFaultSpec(cfg.faults)
		if err != nil {
			return err
		}
		inj = faultinject.NewInjector(fcfg)
		if _, err := p.EnableSupervision(trusted.SupervisorPolicy{}); err != nil {
			return err
		}
	}
	var spec *analyze.Spec
	var monitor *analyze.Monitor
	if cfg.sloPath != "" {
		f, err := os.Open(cfg.sloPath)
		if err != nil {
			return fmt.Errorf("-slo: %w", err)
		}
		spec, err = analyze.ParseSpec(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("-slo: %w", err)
		}
		monitor = analyze.NewMonitor(spec, nil)
	}
	var obs *core.Obs
	if cfg.verbose || monitor != nil || cfg.tracePath != "" || cfg.metricsPath != "" || cfg.profilePath != "" {
		var extra []trace.Sink
		if cfg.verbose {
			extra = append(extra, trace.SinkFunc(func(e trace.Event) {
				fmt.Fprintln(stdout, e)
			}))
		}
		if monitor != nil {
			extra = append(extra, monitor)
		}
		obs = p.EnableObservability(extra...)
		if monitor != nil {
			// Violation events land in the same buffer the exporters
			// read, so they show up in the exported trace.
			monitor.SetOutput(obs.Buf)
		}
	}
	if cfg.itrace > 0 {
		left := cfg.itrace
		p.M.OnStep = func(pc uint32, in isa.Instruction) {
			if left <= 0 {
				p.M.OnStep = nil
				return
			}
			left--
			fmt.Fprintf(stdout, "  %08x:  %s\n", pc, in)
		}
	}
	if cfg.describe {
		fmt.Fprint(stdout, p.Describe())
		return nil
	}
	if len(cfg.files) == 0 {
		return fmt.Errorf("no task images given (or use -describe)")
	}

	var update *telf.SignedImage
	var updatePkg []byte
	if cfg.updatePath != "" {
		if cfg.baseline {
			return fmt.Errorf("-update needs the trusted platform (drop -baseline)")
		}
		updatePkg, err = os.ReadFile(cfg.updatePath)
		if err != nil {
			return fmt.Errorf("-update: %w", err)
		}
		// Structural decode only — signature and counter enforcement
		// happen inside the trusted update service when it is applied.
		update, err = telf.DecodeSigned(updatePkg)
		if err != nil {
			return fmt.Errorf("-update: %s: %w", cfg.updatePath, err)
		}
	}

	kind := core.Secure
	if cfg.normal || cfg.baseline {
		kind = core.Normal
	}
	byName := make(map[string]rtos.TaskID)
	var targets []faultinject.TargetRange
	for _, f := range cfg.files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		im, err := telf.Decode(blob)
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		tcb, id, err := p.LoadTaskSync(im, kind, cfg.prio)
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if kind == core.Secure {
			fmt.Fprintf(stdout, "loaded %q as task %d at %#x, identity %x\n", im.Name, tcb.ID, tcb.Placement.Base, id)
		} else {
			fmt.Fprintf(stdout, "loaded %q as task %d at %#x\n", im.Name, tcb.ID, tcb.Placement.Base)
		}
		byName[im.Name] = tcb.ID
		if inj != nil {
			targets = append(targets, faultinject.TargetRange{
				Start: tcb.Placement.Base,
				Size:  tcb.Placement.Size(),
			})
			inj.SetTargets(targets...)
			if err := p.Watch(tcb.ID); err != nil {
				return err
			}
		}
		if cfg.deadline > 0 {
			if err := p.RegisterDeadline(tcb.ID, cfg.deadline); err != nil {
				return err
			}
		}
	}

	cycles := machine.MillisToCycles(cfg.ms)
	runFor := func(budget uint64) error {
		if inj == nil {
			return p.Run(budget)
		}
		// Inject at slice boundaries so fault timing derives only from
		// the seed and the cycle counter. The budget is relative, like
		// the un-injected path: loading happens before the clock starts.
		const slice = 20_000
		end := p.Cycles() + budget
		for p.Cycles() < end {
			if err := p.Run(slice); err != nil {
				return err
			}
			if err := inj.Advance(p.M); err != nil {
				return err
			}
		}
		return nil
	}
	if update == nil {
		if err := runFor(cycles); err != nil {
			return err
		}
	} else {
		at := machine.MillisToCycles(cfg.updateAtMS)
		if cfg.updateAtMS == 0 {
			at = cycles / 2
		}
		if at > cycles {
			at = cycles
		}
		if err := runFor(at); err != nil {
			return err
		}
		if err := applyMidRunUpdate(p, update, updatePkg, byName, cfg.deadline, stdout); err != nil {
			return err
		}
		if err := runFor(cycles - at); err != nil {
			return err
		}
	}

	maxLat, meanLat, nLat := p.K.IRQLatency()
	fmt.Fprintf(stdout, "\n--- ran %.1f ms (%d cycles), %d ticks, %d dispatches ---\n",
		cfg.ms, cycles, p.K.Ticks(), p.K.Switches())
	fmt.Fprintf(stdout, "cpu utilization: %.1f %%; irq latency mean %.0f / max %d cycles (%d samples)\n",
		p.K.Utilization()*100, meanLat, maxLat, nLat)
	if out := p.Output(); out != "" {
		fmt.Fprintf(stdout, "uart: %q\n", out)
	}
	for _, t := range p.K.Tasks() {
		fmt.Fprintf(stdout, "task %d %-12q %-8s prio %d  activations %d  cpu %d cycles\n",
			t.ID, t.Name, t.State, t.Priority, t.Activations, t.CPUCycles)
	}
	if exits := p.K.Exits(); len(exits) > 0 {
		fmt.Fprintln(stdout, "exits:")
		for _, rec := range exits {
			fmt.Fprintf(stdout, "  [%12d] task %d %-12q %s\n", rec.Reason.Cycle, rec.ID, rec.Name, rec.Reason)
		}
	}
	if inj != nil {
		fmt.Fprintf(stdout, "injected faults (seed-deterministic):\n")
		for _, e := range inj.Events() {
			fmt.Fprintf(stdout, "  [%12d] %-10s %s\n", e.Cycle, e.Class, e.Detail)
		}
		if sup := p.Sup; sup != nil && len(sup.Events()) > 0 {
			fmt.Fprintln(stdout, "supervisor:")
			for _, e := range sup.Events() {
				fmt.Fprintf(stdout, "  [%12d] %-12s %-14s %s\n", e.Cycle, e.Task, e.What, e.Detail)
			}
		}
	}
	if obs != nil {
		if cfg.tracePath != "" {
			if err := exportTo(cfg.tracePath, stdout, obs.WriteChromeTrace); err != nil {
				return fmt.Errorf("-trace: %w", err)
			}
		}
		if cfg.metricsPath != "" {
			if err := exportTo(cfg.metricsPath, stdout, obs.WriteMetrics); err != nil {
				return fmt.Errorf("-metrics: %w", err)
			}
		}
		if cfg.profilePath != "" {
			err := exportTo(cfg.profilePath, stdout, func(w io.Writer) error {
				_, err := io.WriteString(w, obs.Profile().String())
				return err
			})
			if err != nil {
				return fmt.Errorf("-profile: %w", err)
			}
		}
	}
	if monitor != nil {
		// Full offline evaluation over everything the monitor saw —
		// including the percentile rules the online pass defers.
		verdict := monitor.Verdict()
		fmt.Fprintln(stdout)
		for _, res := range verdict.Results {
			mark := "PASS"
			if !res.Pass {
				mark = "FAIL"
			}
			fmt.Fprintf(stdout, "slo [%s] %-32s measured %d over %d sample(s)\n",
				mark, res.Text, res.Measured, res.Samples)
		}
		if !verdict.Pass {
			return fmt.Errorf("slo: %d of %d rules violated", len(verdict.Failed()), len(verdict.Results))
		}
		fmt.Fprintf(stdout, "slo: PASS (%d rules)\n", len(verdict.Results))
	}
	return nil
}
