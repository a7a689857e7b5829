package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// spansOf concatenates the lanes' spans, lane after lane.
func spansOf(lanes []Lane) []ChromeSpan {
	var spans []ChromeSpan
	for _, l := range lanes {
		spans = append(spans, l.Spans...)
	}
	return spans
}

// FuzzReadChromeTrace feeds the Chrome trace reader arbitrary bytes, as
// tytan-analyze does with a trace file from outside the program. The
// reader must not panic, its errors carry the "chrome trace:" prefix,
// and an accepted trace written back and read again gives the same
// events and spans.
func FuzzReadChromeTrace(f *testing.F) {
	var single bytes.Buffer
	if err := WriteChromeTrace(&single, Lane{Events: []Event{
		{Cycle: 10, Sub: SubKernel, Kind: KindTaskSwitch, Subject: "t0", Attrs: []Attr{Num("id", 1)}},
		{Cycle: 1<<53 + 1, Sub: SubEAMPU, Kind: KindViolation, Subject: "t1",
			Attrs: []Attr{Str("kind", "write"), Hex("addr", 0xdeadbeef)}},
	}}); err != nil {
		f.Fatal(err)
	}
	f.Add(single.Bytes())
	var fleet bytes.Buffer
	if err := WriteChromeTrace(&fleet,
		Lane{Name: "verifier-plane",
			Events: []Event{{Cycle: 350, Sub: SubFleet, Kind: KindFleet, Subject: "dev-0001",
				Attrs: []Attr{Str("what", "verdict"), Num("session", 2), Num("seq", 3)}}},
			Spans: []ChromeSpan{{Name: "dev-0001#2", Subject: "dev-0001", Start: 100, Dur: 250,
				Attrs: []Attr{Str("result", "pass")}}}},
		Lane{Name: "device/dev-0001",
			Events: []Event{
				{Cycle: 100, Sub: SubRemote, Kind: KindSession, Subject: "dev-0001",
					Attrs: []Attr{Num("session", 2), Str("phase", "hello")}},
				{Cycle: 350, Sub: SubRemote, Kind: KindSession, Subject: "dev-0001",
					Attrs: []Attr{Num("session", 2), Str("phase", "verdict"), Num("e2e", 250)}},
			},
			Spans: []ChromeSpan{{Name: "dev-0001#2", Subject: "dev-0001", Start: 100, Dur: 250}}},
	); err != nil {
		f.Fatal(err)
	}
	f.Add(fleet.Bytes())
	f.Add([]byte(floatMangledTrace))

	f.Fuzz(func(t *testing.T, data []byte) {
		lanes, err := ReadChromeTrace(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "chrome trace:") {
				t.Fatalf("error without the chrome trace prefix: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, lanes...); err != nil {
			t.Fatalf("accepted trace cannot be written back: %v", err)
		}
		again, err := ReadChromeTrace(&buf)
		if err != nil {
			t.Fatalf("written-back trace does not read: %v\n%s", err, buf.Bytes())
		}
		if got, want := flatten(again), flatten(lanes); !reflect.DeepEqual(got, want) {
			t.Fatalf("events after write-back:\n got %+v\nwant %+v", got, want)
		}
		if got, want := spansOf(again), spansOf(lanes); !reflect.DeepEqual(got, want) {
			t.Fatalf("spans after write-back:\n got %+v\nwant %+v", got, want)
		}
	})
}
