// Command tytan-bench regenerates the paper's evaluation: every table
// of §6 (Tables 1–8 plus the secure-IPC paragraph) and the ablation
// studies listed in DESIGN.md, printed with paper-vs-measured rows.
//
// Usage:
//
//	tytan-bench              # all paper tables
//	tytan-bench -ablations   # the ablation studies as well
//	tytan-bench -only 4      # just Table 4
//	tytan-bench -latency-json BENCH_latency.json
//	                         # IRQ/IPC/attestation latency percentiles → JSON
//
// Every figure it prints is in simulated cycles. Host-clock timing of
// the engine, the use case and the fleet lives in the benchmark runner
// under bench/ (bash bench/run.sh --workload usecase|kernel|fleet).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchlab"
)

func main() {
	ablations := flag.Bool("ablations", false, "also run the ablation studies")
	only := flag.Int("only", 0, "run only the given table number (1-8)")
	md := flag.Bool("md", false, "emit GitHub-flavoured markdown instead of aligned text")
	latencyJSON := flag.String("latency-json", "", "run the instrumented latency scenario and write the per-class percentile JSON to this file")
	flag.Parse()
	render := benchlab.Table.String
	if *md {
		render = benchlab.Table.Markdown
	}

	if *latencyJSON != "" {
		if err := runLatencyBench(*latencyJSON); err != nil {
			fmt.Fprintln(os.Stderr, "tytan-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *only != 0 {
		if err := runOne(*only); err != nil {
			fmt.Fprintln(os.Stderr, "tytan-bench:", err)
			os.Exit(1)
		}
		return
	}

	tables, err := benchlab.AllTables()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tytan-bench:", err)
		os.Exit(1)
	}
	for _, t := range tables {
		fmt.Println(render(t))
	}
	if *ablations {
		abl, err := benchlab.AllAblations()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tytan-bench:", err)
			os.Exit(1)
		}
		for _, t := range abl {
			fmt.Println(render(t))
		}
	}
}

// runLatencyBench writes BENCH_latency.json: per-class latency
// percentiles from the instrumented scenario. Everything in it is
// simulated cycles, so the file is byte-identical across runs.
func runLatencyBench(path string) error {
	rep, err := benchlab.MeasureLatency()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("latency benchmark → %s (irq max %d, attest p99 %d, deadline misses %d)\n",
		path, rep.IRQ.Max, rep.Attest.P99, rep.DeadlineMisses)
	return nil
}

func runOne(n int) error {
	var t benchlab.Table
	var err error
	switch n {
	case 1:
		t, err = benchlab.Table1UseCase()
	case 2:
		t, err = benchlab.Table2ContextSave()
	case 3:
		t, err = benchlab.Table3ContextRestore()
	case 4:
		t, err = benchlab.Table4TaskCreation()
	case 5:
		t, err = benchlab.Table5Relocation()
	case 6:
		t, err = benchlab.Table6EAMPUConfig()
	case 7:
		t, err = benchlab.Table7Measurement()
	case 8:
		t = benchlab.Table8Memory()
	default:
		return fmt.Errorf("no table %d (valid: 1-8)", n)
	}
	if err != nil {
		return err
	}
	fmt.Println(t)
	return nil
}
