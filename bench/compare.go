package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// tool runs there or in bench/.
func loadSpec() (benchSpec, error) {
	var spec benchSpec
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return spec, err
		}
		return spec, json.Unmarshal(b, &spec)
	}
	return spec, errors.New("BENCHMARK.json not found in . or ..")
}

// readRecords returns the untraced run records in a file, by workload.
// Lines that are not records (result lines, logs) are skipped.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Workload == "" || rec.Trace {
			continue
		}
		out[rec.Workload] = append(out[rec.Workload], rec)
	}
	return out, sc.Err()
}

// verdict labels one (metric, workload) pair. worse is the change of
// the median in the metric's bad direction, as a share of the old
// median; spreads are each side's quartile distance over its median.
func verdict(worse, bound, oldSpread, newSpread float64, allBetter bool) string {
	switch {
	case max(oldSpread, newSpread) > bound:
		if allBetter {
			return "improved"
		}
		return "unresolved"
	case worse > bound:
		return "worse"
	case -worse > oldSpread:
		return "improved"
	}
	return "unchanged"
}

// runCompare prints one row per (metric, workload): both sides'
// median and quartiles over their runs, the change of the median, the
// metric's bound and a verdict. Guest digests must be identical over
// all runs of both sides, and failed ops must stay at zero.
func runCompare(w io.Writer, oldPath, newPath string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	oldRecs, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\truns\told median [q1, q3]\tnew median [q1, q3]\tchange\tbound\tverdict")
	for _, wl := range workloads {
		olds, news := oldRecs[wl.name], newRecs[wl.name]
		if len(olds) == 0 && len(news) == 0 {
			continue
		}
		if len(olds) == 0 || len(news) == 0 {
			fmt.Fprintf(tw, "%s\t-\t%d/%d\t\t\t\t\tunresolved\n", wl.name, len(olds), len(news))
			continue
		}
		for _, m := range spec.EndToEnd {
			ov, nv := metricValues(olds, m.Name), metricValues(news, m.Name)
			o1, o2, o3 := quartiles(ov)
			n1, n2, n3 := quartiles(nv)
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			worse := sign * (n2 - o2) / o2
			allBetter := true
			for _, a := range nv {
				for _, b := range ov {
					allBetter = allBetter && sign*(a-b) < 0
				}
			}
			v := verdict(worse, m.Bound, (o3-o1)/o2, (n3-n1)/n2, allBetter)
			fmt.Fprintf(tw, "%s\t%s (%s)\t%d/%d\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%%\t%.0f%%\t%s\n",
				wl.name, m.Name, m.Unit, len(ov), len(nv), o2, o1, o3, n2, n1, n3, (n2-o2)/o2*100, m.Bound*100, v)
		}
		of, nf := failedOps(olds), failedOps(news)
		v := "unchanged"
		if nf > 0 {
			v = "worse"
		}
		fmt.Fprintf(tw, "%s\tfailed_ops\t%d/%d\t%d\t%d\t\t0\t%s\n", wl.name, len(olds), len(news), of, nf, v)
		v = "unchanged"
		if !sameGuest(append(append([]record(nil), olds...), news...)) {
			v = "worse"
		}
		fmt.Fprintf(tw, "%s\tguest digests\t%d/%d\t\t\t\texact\t%s\n", wl.name, len(olds), len(news), v)
	}
	return tw.Flush()
}

func metricValues(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedOps(recs []record) int {
	n := 0
	for _, r := range recs {
		n += r.FailedOps
	}
	return n
}

// sameGuest reports whether all runs carry identical guest digests.
// Every digest is checked against a golden that is the same at every
// seed, so runs at different seeds compare directly.
func sameGuest(recs []record) bool {
	for _, r := range recs {
		if !maps.Equal(r.Guest, recs[0].Guest) {
			return false
		}
	}
	return true
}
