package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"diversify/internal/optimize"
	"diversify/internal/telemetry"
)

// Child modes. Every timed optimization runs in a fresh child process,
// so heap, RSS and the store's append tail never carry over.
const (
	modeSetup  = "setup"  // set up several times, no run
	modeRun    = "run"    // one untraced optimization
	modeTraced = "traced" // one traced optimization, then the layer probes
)

// setupsPerChild is how many times a set-up child sets up; its SetupS
// is the median of them.
const setupsPerChild = 5

// childResult is what a child prints as its only stdout line.
type childResult struct {
	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Answer     answer  `json:"answer"`
	// Simulated counts the replications the evaluator actually ran,
	// read from its evaluation batches, so store-served candidates count
	// nothing and the random baseline counts when it was simulated.
	// Result.Replications bills every evaluated candidate, store-served
	// or not, and leaves the baseline out, so it is reported apart.
	Simulated           int    `json:"simulated_replications"`
	LibraryReplications int    `json:"library_replications"`
	Failure             string `json:"failure,omitempty"`
	// Traced runs only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

// childArgs are the instructions for one child task.
type childArgs struct {
	mode     string
	w        *workload
	seed     uint64 // problem seed of the recorded instance
	store    string // the run's store path
	pristine string // the populated store a warm run copies
	workers  int    // evaluation workers, 0 for one per CPU
}

// simulatedCounter is the sink of every run: it adds up the replications
// of the evaluation batches that were simulated, not store-served.
type simulatedCounter struct{ reps atomic.Int64 }

func (c *simulatedCounter) Emit(e telemetry.Event) {
	if b, ok := e.(telemetry.EvaluationBatch); ok && !b.FromStore {
		c.reps.Add(int64(b.Replications))
	}
}

// setup builds the workload's problem and prepares its store. This is
// the set-up a user pays before every optimization.
func (a childArgs) setup() (optimize.Problem, string, error) {
	p, err := a.w.problem(a.seed, a.w.budget)
	if err != nil {
		return p, "", err
	}
	p.Workers = a.workers
	switch a.w.store {
	case freshStore:
		if err := os.Remove(a.store); err != nil && !os.IsNotExist(err) {
			return p, "", err
		}
		return p, a.store, nil
	case warmStore:
		return p, a.store, copyFile(a.store, a.pristine)
	}
	return p, "", nil
}

// timeSetups sets up setupsPerChild times, each after a collection so
// every one starts from the same heap, and returns the median time. The
// first set-up of the process, which faults its heap in, is one of the
// samples.
func (a childArgs) timeSetups() (float64, error) {
	xs := make([]float64, setupsPerChild)
	for i := range xs {
		runtime.GC()
		start := time.Now()
		if _, _, err := a.setup(); err != nil {
			return 0, err
		}
		xs[i] = time.Since(start).Seconds()
	}
	return median(xs), nil
}

// runChild performs one child task. Failures of the optimization itself
// are reported in the result; an error means the child could not work.
// The caller compares the answer with the recorded one.
func runChild(a childArgs) (childResult, error) {
	var res childResult
	var err error
	if a.mode == modeSetup {
		res.SetupS, err = a.timeSetups()
		return res, err
	}
	start := time.Now()
	p, storePath, err := a.setup()
	if err != nil {
		return res, err
	}
	res.SetupS = time.Since(start).Seconds()

	opt, err := optimize.ByName(a.w.strategy)
	if err != nil {
		return res, err
	}
	count := &simulatedCounter{}
	opts := optimize.RunOptions{StorePath: storePath, Sink: count}
	var rec *recorder
	if a.mode == modeTraced {
		rec = newRecorder()
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	var out *optimize.Result
	if rec != nil {
		out, err = rec.runTraced(context.Background(), p, opt, opts)
	} else {
		out, err = optimize.RunWith(context.Background(), p, opt, opts)
	}
	res.WallS = time.Since(t).Seconds()
	runtime.ReadMemStats(&after)
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	if err != nil {
		res.Failure = fmt.Sprintf("optimization failed: %v", err)
		return res, nil
	}
	res.Answer = answerOf(a.seed, out)
	res.Simulated = int(count.reps.Load())
	res.LibraryReplications = out.Replications
	switch {
	case out.Degraded != "":
		res.Failure = "degraded run: " + out.Degraded
	case out.Stats.Quarantined > 0:
		res.Failure = fmt.Sprintf("%d candidates quarantined", out.Stats.Quarantined)
	}
	if rec == nil {
		return res, nil
	}

	spans := rec.finish()
	res.Layers = rec.strategyLayers(spans)
	probes, err := probeAll(rec, a.w, p, out.BestAssignment, out.Evaluations, filepath.Dir(a.store))
	if err != nil {
		return res, err
	}
	for k, v := range probes {
		res.Layers[k] = v
	}
	res.Spans = rec.finish()
	return res, nil
}

// solve runs one problem seed of the workload in this process, as a
// timed child does, after populating a warm workload's store in dir. It
// fails unless both runs are healthy.
func solve(w *workload, seed uint64, workers int, dir string) (childResult, error) {
	a := childArgs{mode: modeRun, w: w, seed: seed, store: filepath.Join(dir, "run.store"), workers: workers}
	if w.store == warmStore {
		src, err := workloadByName(w.populatedBy)
		if err != nil {
			return childResult{}, err
		}
		a.pristine = filepath.Join(dir, "pristine.store")
		pop, err := runChild(childArgs{mode: modeRun, w: src, seed: seed, store: a.pristine, workers: workers})
		if err != nil {
			return pop, err
		}
		if pop.Failure != "" {
			return pop, fmt.Errorf("populating the store: %s", pop.Failure)
		}
	}
	res, err := runChild(a)
	if err == nil && res.Failure != "" {
		err = fmt.Errorf("seed %d: %s", seed, res.Failure)
	}
	return res, err
}
