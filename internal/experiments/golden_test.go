package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// -update rewrites the golden files from the current implementation.
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenCases pins the seeded table output of the Monte-Carlo experiments
// that exercise the propagation hot path and the core.Study pipeline. The
// E2/E4/E8 goldens were captured before the sealed-CSR topology rewrite,
// the E6/E9 ones before Study ran on malware.Runner; any change to
// iteration order, RNG draw sequence or formatting shows up as a byte
// diff. A case with workers runs once per worker count against the same
// golden.
var goldenCases = []struct {
	name    string
	run     Runner
	opts    Opts
	workers []int
}{
	{"E2", E2TimeToAttack, Opts{Reps: 40, Seed: 1}, nil},
	{"E4", E4CompromisedRatio, Opts{Reps: 10, Seed: 1}, nil},
	{"E6", E6AnovaAllocation, Opts{Reps: 10, Seed: 1}, []int{1, 3}},
	{"E8", E8ThreatModels, Opts{Reps: 15, Seed: 1}, nil},
	{"E9", E9PipelineEndToEnd, Opts{Reps: 10, Seed: 1}, []int{1, 3}},
}

func TestGoldenTables(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", tc.name+".golden")
			if tc.workers == nil {
				checkGolden(t, path, tc.run, tc.opts)
				return
			}
			for _, w := range tc.workers {
				t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
					o := tc.opts
					o.Workers = w
					checkGolden(t, path, tc.run, o)
				})
			}
		})
	}
}

// checkGolden runs one experiment and compares its table with the golden
// file at path (or rewrites the file under -update).
func checkGolden(t *testing.T, path string, run Runner, o Opts) {
	t.Helper()
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	got := res.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output diverged from golden\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
