package benchlab

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/remote"
)

// The latency benchmark: one deterministic instrumented scenario that
// exercises every span class the analysis layer knows — periodic tasks
// under the scheduler tick (IRQ/tick service spans), an asynchronous
// dynamic load (load-pipeline spans), secure IPC deliveries and
// attestation round-trips — then reports per-class percentiles in
// cycles. `tytan-bench -latency-json` writes the result as
// BENCH_latency.json, the repo's real-time perf trajectory.

// LatencyReport is the serialized benchmark result. Everything is in
// simulated cycles, so same-seed runs produce byte-identical JSON.
type LatencyReport struct {
	Cycles         uint64        `json:"cycles"`
	Events         int           `json:"events"`
	Spans          int           `json:"spans"`
	IRQ            analyze.Stats `json:"irq_latency"`
	Tick           analyze.Stats `json:"tick_latency"`
	IPC            analyze.Stats `json:"ipc_latency"`
	Attest         analyze.Stats `json:"attest_rtt"`
	Load           analyze.Stats `json:"load_total"`
	DeadlineMisses int           `json:"deadline_misses"`
}

// WriteJSON renders the report as indented JSON.
func (r LatencyReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// MeasureLatency runs the instrumented latency scenario.
func MeasureLatency() (LatencyReport, error) {
	var rep LatencyReport
	p := mustPlatform(core.Options{EngineHistory: 1 << 16})
	defer p.Close()
	obs := p.EnableObservability()

	// The cruise-control tasks from the use case, now with registered
	// deadlines so the kernel verifies each activation window.
	t0 := UseCaseTaskImage(tagT0, useCasePeriod)
	t0.Name = "t0"
	t1 := UseCaseTaskImage(tagT1, useCasePeriod)
	t1.Name = "t1"
	tcb0, _, err := p.LoadTaskSync(t0, core.Secure, 5)
	if err != nil {
		return rep, err
	}
	tcb1, _, err := p.LoadTaskSync(t1, core.Secure, 5)
	if err != nil {
		return rep, err
	}
	// Four nominal periods is a generous bound: the scenario is sized
	// so a healthy scheduler never misses (misses would be the finding).
	if err := p.RegisterDeadline(tcb0.ID, 4*useCasePeriod); err != nil {
		return rep, err
	}
	if err := p.RegisterDeadline(tcb1.ID, 4*useCasePeriod); err != nil {
		return rep, err
	}

	const window = 32 * core.DefaultTickPeriod
	if err := p.Run(window); err != nil {
		return rep, err
	}

	// Dynamic load, shared with the running tasks (load-pipeline spans).
	req := p.LoadTaskAsync(UseCaseT2Image(tagT2, useCasePeriod), core.Secure, 4)
	for !req.Done() && p.Cycles() < 200*window {
		if err := p.Run(core.DefaultTickPeriod); err != nil {
			return rep, err
		}
	}
	if req.Err() != nil {
		return rep, req.Err()
	}
	if !req.Done() {
		return rep, fmt.Errorf("benchlab: latency scenario: t2 load never completed")
	}

	// Secure IPC: t0 → t1 deliveries, each followed by a run window so
	// the receiver's dispatch closes the delivery span.
	re1, ok := p.C.RTM.LookupByTask(tcb1.ID)
	if !ok {
		return rep, fmt.Errorf("benchlab: latency scenario: t1 not registered")
	}
	for i := 0; i < 4; i++ {
		p.C.Proxy.Send(p.K, tcb0, re1.TruncID, []uint32{uint32(i), 2, 3}, 12, false)
		if err := p.Run(4 * core.DefaultTickPeriod); err != nil {
			return rep, err
		}
	}

	// Attestation round-trips over the wire: each is one challenge/quote
	// exchange on an in-memory pipe, which the server brackets in a
	// request/reply event pair (cycle-accurate RTT — the quote HMACs the
	// task region).
	re0, ok := p.C.RTM.LookupByTask(tcb0.ID)
	if !ok {
		return rep, fmt.Errorf("benchlab: latency scenario: t0 not registered")
	}
	srv := remote.NewServer(remote.ComponentsAttestor{C: p.C}, remote.ServerOptions{Obs: obs.Sink(), Cycles: p.M.Cycles})
	provider := p.Provider("")
	client := remote.NewClient(provider.Verifier(), provider.Name(), remote.ClientOptions{})
	for i := 0; i < 4; i++ {
		devConn, verConn := net.Pipe()
		served := make(chan error, 1)
		go func() { served <- srv.ServeOne(devConn) }()
		_, err := client.Attest(verConn, re0.ID, uint64(0xbeef+i))
		verConn.Close()
		err = errors.Join(err, <-served)
		devConn.Close()
		if err != nil {
			return rep, err
		}
		if err := p.Run(2 * core.DefaultTickPeriod); err != nil {
			return rep, err
		}
	}

	if err := p.Run(window); err != nil {
		return rep, err
	}

	a := analyze.Analyze(obs.Events())
	rep.Cycles = p.Cycles()
	rep.Events = len(a.Events)
	rep.Spans = len(a.Spans)
	rep.IRQ = analyze.Summarize(a.Durations(analyze.ClassIRQ, analyze.ClassTick))
	rep.Tick = analyze.Summarize(a.Durations(analyze.ClassTick))
	rep.IPC = analyze.Summarize(a.Durations(analyze.ClassIPC))
	rep.Attest = analyze.Summarize(a.Durations(analyze.ClassAttest))
	rep.Load = analyze.Summarize(a.Durations(analyze.ClassLoad))
	rep.DeadlineMisses = a.DeadlineMisses
	return rep, nil
}
