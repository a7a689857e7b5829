package sverify

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/contract"
	"repro/internal/telf"
)

// corpusSeeds is the number of generator seeds per class in the fuzz
// seed corpus.
const corpusSeeds = 3

// seedEntries is the deterministic fuzz seed corpus: one encoded image
// per generator class and seed. TestFuzzSeedCorpus materializes it
// under testdata/fuzz/FuzzVerify (the directory `go test -fuzz` reads)
// and fails if a checked-in file drifts from the generator.
func seedEntries(t testing.TB) map[string][]byte {
	out := make(map[string][]byte)
	for c := GenClass(0); c < NumGenClasses; c++ {
		for seed := uint64(0); seed < corpusSeeds; seed++ {
			im := GenImage(c, seed)
			enc, err := im.Encode()
			if err != nil {
				t.Fatalf("%s: encode: %v", im.Name, err)
			}
			out[im.Name] = enc
		}
	}
	return out
}

// TestFuzzSeedCorpus keeps the checked-in seed corpus in sync with the
// generator: missing files are created (run the test once and commit),
// stale files fail the build.
func TestFuzzSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzVerify")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, enc := range seedEntries(t) {
		path := filepath.Join(dir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", enc)
		got, err := os.ReadFile(path)
		switch {
		case os.IsNotExist(err):
			if werr := os.WriteFile(path, []byte(want), 0o644); werr != nil {
				t.Fatal(werr)
			}
			t.Logf("wrote seed %s", path)
		case err != nil:
			t.Fatal(err)
		case string(got) != want:
			t.Errorf("seed %s is stale; delete it and re-run to regenerate", path)
		}
	}
}

// TestVerifyCorpus pins the full report — findings, blocks and bounds
// — of every seed-corpus image, so a change to any analysis shows up as
// a digest miss on the "verify-corpus" row.
func TestVerifyCorpus(t *testing.T) {
	contract.Check(t, contract.Row{Name: "verify-corpus", Produce: func(t *testing.T, _ contract.Point) []byte {
		var out bytes.Buffer
		for c := GenClass(0); c < NumGenClasses; c++ {
			for seed := uint64(0); seed < corpusSeeds; seed++ {
				rep := Verify(GenImage(c, seed), Config{})
				if err := rep.WriteJSON(&out); err != nil {
					t.Fatal(err)
				}
				if err := rep.WriteText(&out); err != nil {
					t.Fatal(err)
				}
			}
		}
		return out.Bytes()
	}})
}

// FuzzVerify holds the verifier to its robustness contract: every image
// telf.Decode accepts from arbitrary bytes is verified without a panic,
// and the report is deterministic.
func FuzzVerify(f *testing.F) {
	for _, enc := range seedEntries(f) {
		f.Add(enc)
	}
	// A few structural mutants so the fuzzer starts near the edges.
	if im := GenImage(GenClean, 0); true {
		im.Entry = 4
		if enc, err := im.Encode(); err == nil {
			f.Add(enc)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		im, err := telf.Decode(b)
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := Verify(im, Config{}).WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		im2, err := telf.Decode(b)
		if err != nil {
			t.Fatalf("second decode rejected what the first accepted: %v", err)
		}
		if err := Verify(im2, Config{}).WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("verification of the same bytes is not deterministic")
		}
	})
}
