// Package contract is the test harness for the reproduction's
// byte-identity contracts: every engine is cycle-exact, observability
// has zero impact, and fleet output is identical at every shard count.
//
// A Row names one output, a producer that renders it as bytes, and the
// axes that must not change those bytes. Check runs the producer at
// every point of the axes' product plus one repeat of the first point,
// fails on the first byte that differs, and pins the output to the
// row's SHA-256 line in the calling package's testdata/contract.sum:
//
//	fleet 3b9c…e1
//
// A digest miss prints the replacement line. When the output change is
// intended, paste that line over the row's old one.
package contract

import (
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"os"
	"strings"
	"testing"

	"repro/internal/machine"
)

// sumFile is the digest file Check reads, relative to the package
// under test.
const sumFile = "testdata/contract.sum"

// Axis is one input that must not change a row's output.
type Axis struct {
	Name   string
	Values []string
	// set installs a process-wide value and returns its undo; nil for
	// axes the producer reads from its Point.
	set func(value string) (undo func())
}

// Over is an axis whose values the producer reads from its Point.
func Over(name string, values ...string) Axis {
	return Axis{Name: name, Values: values}
}

// Toggle is the two-valued axis "off", "on".
func Toggle(name string) Axis { return Over(name, "off", "on") }

// Engine runs each point on the production engine and on the reference
// oracle by flipping machine.FastPathDefault, so a producer sees it in
// every machine it builds. It is the repo's only writer of that
// variable, and no test calls t.Parallel, which keeps the flip
// race-free; TestOneEngineSwitch holds both premises.
var Engine = Axis{
	Name:   "engine",
	Values: []string{"production", "reference"},
	set: func(value string) func() {
		prev := machine.FastPathDefault
		machine.FastPathDefault = value == "production"
		return func() { machine.FastPathDefault = prev }
	},
}

// EachEngine renders produce once on each Engine value, each output
// under a "# engine=<value>" line: the producer of a row whose output
// legitimately differs by engine, such as the engine's own counters.
func EachEngine(produce func() []byte) []byte {
	var out []byte
	for _, v := range Engine.Values {
		undo := Engine.set(v)
		out = append(append(out, "# engine="+v+"\n"...), produce()...)
		undo()
	}
	return out
}

// Point is one combination of axis values: axis name to value.
type Point map[string]string

// On reports whether the named toggle is "on" at this point.
func (p Point) On(axis string) bool { return p[axis] == "on" }

// Row is one byte-identity contract.
type Row struct {
	// Name keys the row's line in testdata/contract.sum. Rows that
	// render the same output share a name, whatever their axes.
	Name    string
	Axes    []Axis
	Produce func(t *testing.T, at Point) []byte
}

// Check runs every row and fails t on a divergence or a digest miss.
func Check(t *testing.T, rows ...Row) {
	t.Helper()
	sums := readSums(t)
	for _, r := range rows {
		r.check(t, sums)
	}
}

func (r Row) check(t *testing.T, sums map[string]string) {
	t.Helper()
	points := product(r.Axes)
	var want []byte
	for i, at := range append(points, points[0]) {
		label := r.label(at)
		if i == len(points) {
			label = "repeat of " + label
		}
		got := r.produce(t, at)
		if i == 0 {
			want = got
			continue
		}
		if off := firstDiff(want, got); off >= 0 {
			t.Errorf("contract %s: %s differs from %s at byte %d:\n  %q\n  %q",
				r.Name, label, r.label(points[0]), off, around(want, off), around(got, off))
			return
		}
	}
	sum := sha256.Sum256(want)
	got := hex.EncodeToString(sum[:])
	if sums[r.Name] != got {
		t.Errorf("contract %s: output digest is not the one in %s; if the change is intended, the row's line is:\n%s %s",
			r.Name, sumFile, r.Name, got)
	}
}

// produce runs the producer at one point with the point's process-wide
// axes installed.
func (r Row) produce(t *testing.T, at Point) []byte {
	t.Helper()
	for _, a := range r.Axes {
		if a.set != nil {
			defer a.set(at[a.Name])()
		}
	}
	return r.Produce(t, at)
}

// label renders a point in axis order ("engine=reference telemetry=on").
func (r Row) label(at Point) string {
	if len(r.Axes) == 0 {
		return "first run"
	}
	parts := make([]string, len(r.Axes))
	for i, a := range r.Axes {
		parts[i] = a.Name + "=" + at[a.Name]
	}
	return strings.Join(parts, " ")
}

// product enumerates every combination of the axes' values, first
// value first; no axes is the one empty point.
func product(axes []Axis) []Point {
	points := []Point{{}}
	for _, a := range axes {
		var next []Point
		for _, p := range points {
			for _, v := range a.Values {
				q := maps.Clone(p)
				q[a.Name] = v
				next = append(next, q)
			}
		}
		points = next
	}
	return points
}

// firstDiff returns the offset of the first byte where a and b differ,
// or -1 when they are equal.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// around returns up to 40 bytes of b on either side of offset off.
func around(b []byte, off int) []byte {
	return b[max(0, off-40):min(len(b), off+40)]
}

// readSums parses sumFile into row name → hex digest.
func readSums(t *testing.T) map[string]string {
	t.Helper()
	blob, err := os.ReadFile(sumFile)
	if err != nil {
		t.Fatalf("contract: %v", err)
	}
	sums := make(map[string]string)
	for _, line := range strings.Split(string(blob), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			sums[f[0]] = f[1]
		}
	}
	return sums
}
