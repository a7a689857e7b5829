package benchlab

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/contract"
)

// TestLatencyBench pins BENCH_latency.json: the latency scenario's
// report is byte-identical across engines and repeat runs, and the file
// committed at the repo root is exactly what the scenario produces.
func TestLatencyBench(t *testing.T) {
	var got []byte
	contract.Check(t, contract.Row{Name: "latency", Axes: []contract.Axis{contract.Engine}, Produce: func(t *testing.T, _ contract.Point) []byte {
		rep, err := MeasureLatency()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		got = buf.Bytes()
		return got
	}})
	committed, err := os.ReadFile("../../BENCH_latency.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, got) {
		t.Error("BENCH_latency.json differs from the latency scenario's output; regenerate it with `make latency-bench`")
	}
}
