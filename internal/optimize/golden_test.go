package optimize_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"diversify"
)

// -update rewrites the optimizer goldens from the current implementation.
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenConfig is the shared grid:60 problem of every optimizer golden:
// the cmd/optimize run `-topo grid:60 -budget 30 -reps 8 -horizon 240
// -seed 7`, every other flag at its default.
func goldenConfig(strategy string) diversify.OptimizeConfig {
	return diversify.OptimizeConfig{
		Topology: "grid:60", Strategy: strategy,
		Budget: 30, Reps: 8, HorizonHours: 240, Seed: 7,
	}
}

// goldenCase is one pinned cmd/optimize -json run.
type goldenCase struct {
	name string
	cfg  diversify.OptimizeConfig
}

// goldenCases pins the optimizer's `-json` output: all five strategies on
// static placement, all five on the placement × schedule space under the
// foothold objective, greedy with trace explanations, and anneal and
// greedy under a per-zone variant cap of 2 (which pins the anneal
// trace's "[zone cap]" rejections). Worker-count
// invariance and clean-vs-resumed identity only compare the optimizer
// with itself; these files compare it with a fixed answer.
func goldenCases() []goldenCase {
	var cases []goldenCase
	strategies := []string{"greedy", "anneal", "genetic", "portfolio", "pareto"}
	for _, s := range strategies {
		cases = append(cases, goldenCase{s + "-static", goldenConfig(s)})
	}
	for _, s := range strategies {
		cfg := goldenConfig(s)
		cfg.Rotations = []string{"triggered:48", "adaptive:24x2"}
		cfg.Objective = "foothold"
		cases = append(cases, goldenCase{s + "-rotate-foothold", cfg})
	}
	traced := goldenConfig("greedy")
	traced.TraceSample = 0.25
	cases = append(cases, goldenCase{"greedy-trace", traced})
	for _, s := range []string{"anneal", "greedy"} {
		cfg := goldenConfig(s)
		cfg.MaxPerZone = 2
		cases = append(cases, goldenCase{s + "-zone2", cfg})
	}
	return cases
}

func TestOptimizerGoldens(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			res, err := diversify.OptimizeContext(context.Background(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Encoded exactly as cmd/optimize -json prints it.
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				t.Fatal(err)
			}
			got := buf.Bytes()
			path := filepath.Join("testdata", tc.name+".golden.json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s output diverged from %s (re-run with -update only when the change is intended)", tc.name, path)
			}
		})
	}
}
