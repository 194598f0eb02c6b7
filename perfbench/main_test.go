package main

import (
	"runtime"
	"testing"
)

// Every workload's recorded answer must come out at one evaluation
// worker and at one per CPU: the benchmark checks runs against answers
// that do not depend on the worker count.
func TestAnswersAcrossWorkerCounts(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.substations > 100 {
				t.Skip("grid:400 optimizations in -short mode")
			}
			seed, err := w.instance(0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := w.expected(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, runtime.NumCPU()} {
				got, err := solve(w, seed, workers, t.TempDir())
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if msg := want.mismatch(got.Answer); msg != "" {
					t.Errorf("workers=%d: %s", workers, msg)
				}
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartUS: 0, EndUS: 100},
		{ID: 1, Parent: 0, StartUS: 10, EndUS: 40},
		{ID: 2, Parent: 0, StartUS: 30, EndUS: 50}, // overlaps span 1
		{ID: 3, Parent: 1, StartUS: 15, EndUS: 20},
		{ID: 4, Parent: 0, StartUS: 90, EndUS: 120}, // runs past its parent
	}
	selfTimes(spans)
	for i, want := range []float64{100 - 40 - 10, 25, 20, 5, 30} {
		if spans[i].SelfUS != want {
			t.Errorf("span %d self time %v, want %v", i, spans[i].SelfUS, want)
		}
	}
}

func TestEveryWorkloadHasAnswers(t *testing.T) {
	all, err := recordedAnswers()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(all[w.name]) == 0 {
			t.Errorf("%s has no recorded instances", w.name)
		}
		if w.store == warmStore {
			src, err := workloadByName(w.populatedBy)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range all[w.name] {
				if _, err := src.expected(a.Seed); err != nil {
					t.Errorf("%s instance %d cannot be populated: %v", w.name, a.Seed, err)
				}
			}
		}
	}
}
