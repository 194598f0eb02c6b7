// Command perfbench is the layered benchmark of the placement optimizer.
// It times whole optimizations of three named workloads end to end, each
// in a fresh process with one caller in a closed loop, checks every
// answer against a recorded one, and with --trace 1 splits a traced run
// into per-layer figures. See NOTES.md beside this file.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cold-greedy-grid400 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// deadline bounds one invocation; children still running then are
// killed and count as failed.
const deadline = 170 * time.Second

// Set-up is measured by at least setupChildren set-up children over at
// least setupWindow: the host's speed changes over fractions of a
// second, and one set-up takes milliseconds.
const (
	setupChildren = 11
	setupWindow   = 2 * time.Second
)

// workDir holds a run's store files and is removed at exit; outDir keeps
// the span files of traced runs.
var (
	workDir = filepath.Join(".bench_build", "perfbench")
	outDir  = filepath.Join("perfbench", "out")
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload name")
		seed     = fs.Uint64("seed", 1, "selects the recorded problem instance (seed mod pool size)")
		secs     = fs.Int("seconds", 20, "keep starting timed runs until this many seconds have passed")
		traceOn  = fs.Int("trace", 0, "1: one untraced and one traced run, report per-layer metrics")
		record   = fs.String("record", "", "comma-separated problem seeds: print their answers as JSON lines instead of benchmarking")
		child    = fs.String("child", "", "internal: run one child task (setup, run or traced)")
		pseed    = fs.Uint64("problem-seed", 0, "internal: the child's problem seed")
		store    = fs.String("store", "", "internal: the child's store path")
		pristine = fs.String("pristine", "", "internal: the populated store a warm child copies")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	switch {
	case *child != "":
		res, err := runChild(childArgs{mode: *child, w: w, seed: *pseed, store: *store, pristine: *pristine})
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(res)
	case *record != "":
		return recordAnswers(w, *record, stdout)
	}
	if *traceOn != 0 && *traceOn != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceOn)
	}
	if *secs < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *secs)
	}
	problemSeed, err := w.instance(*seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	b := &bench{ctx: ctx, w: w, seed: problemSeed, dir: dir, store: filepath.Join(dir, "run.store")}
	if err := b.populate(); err != nil {
		return err
	}
	var rep report
	if *traceOn == 1 {
		rep, err = b.traced(*seed)
	} else {
		rep, err = b.timed(time.Duration(*secs) * time.Second)
	}
	if err != nil {
		return err
	}
	return rep.print(stdout)
}

// bench runs one invocation's child processes.
type bench struct {
	ctx      context.Context
	w        *workload
	seed     uint64 // problem seed
	dir      string
	store    string
	pristine string
	spans    []span // parent-side spans of the traced invocation
	origin   time.Time
}

// childRun is one child's result plus what the parent measured of it.
type childRun struct {
	childResult
	peakRSSMB float64
}

func (r childRun) ok() bool { return r.Failure == "" }

// spawn runs one child task of workload w in a fresh process and checks
// a run's answer against w's recorded one.
func (b *bench) spawn(mode string, w *workload, store string) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.CommandContext(b.ctx, exe, "-child", mode, "-workload", w.name,
		"-problem-seed", strconv.FormatUint(b.seed, 10), "-store", store, "-pristine", b.pristine)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start := time.Now()
	runErr := cmd.Run()
	if b.ctx.Err() != nil {
		return childRun{childResult: childResult{Failure: "killed at the invocation deadline"}}, nil
	}
	var r childRun
	var exit *exec.ExitError
	switch {
	case errors.As(runErr, &exit):
		r.Failure = fmt.Sprintf("child %s exited: %v", mode, runErr)
	case runErr != nil:
		return r, fmt.Errorf("child %s: %w", mode, runErr)
	default:
		if err := json.Unmarshal(out.Bytes(), &r.childResult); err != nil {
			return r, fmt.Errorf("child %s printed %q: %w", mode, out.String(), err)
		}
		if mode != modeSetup && r.Failure == "" {
			want, err := w.expected(b.seed)
			if err != nil {
				return r, err
			}
			r.Failure = want.mismatch(r.Answer)
		}
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if b.origin != (time.Time{}) {
		b.spans = append(b.spans, span{ID: len(b.spans), Parent: -1, Name: "process." + mode,
			StartUS: float64(start.Sub(b.origin).Microseconds()), EndUS: float64(time.Since(b.origin).Microseconds())})
	}
	return r, nil
}

// populate fills the pristine store of a warm workload by running the
// populating workload's problem once with a fresh store, and checks
// that run's answer.
func (b *bench) populate() error {
	if b.w.store != warmStore {
		return nil
	}
	src, err := workloadByName(b.w.populatedBy)
	if err != nil {
		return err
	}
	b.pristine = filepath.Join(b.dir, "pristine.store")
	r, err := b.spawn(modeRun, src, b.pristine)
	if err != nil {
		return err
	}
	if !r.ok() {
		return fmt.Errorf("populating the store: %s", r.Failure)
	}
	return nil
}

// timed starts untraced runs until d has passed, then measures set-up.
func (b *bench) timed(d time.Duration) (report, error) {
	var runs []childRun
	start := time.Now()
	for len(runs) == 0 || time.Since(start) < d {
		r, err := b.spawn(modeRun, b.w, b.store)
		if err != nil {
			return report{}, err
		}
		runs = append(runs, r)
		if b.ctx.Err() != nil {
			break
		}
	}
	var wall, cps, rss, alloc []float64
	for _, r := range runs {
		if r.WallS > 0 {
			wall = append(wall, r.WallS)
			cps = append(cps, float64(r.Answer.Evaluations)/r.WallS)
			rss = append(rss, r.peakRSSMB)
			alloc = append(alloc, float64(r.AllocBytes)/(1<<20))
		}
	}
	if len(wall) == 0 {
		return report{}, fmt.Errorf("no run produced timings: %s", runs[0].Failure)
	}
	setup, err := b.setupTime()
	if err != nil {
		return report{}, err
	}
	rep := newReport(runs)
	rep.add("wall_s", median(wall), "s")
	rep.add("candidates_per_s", median(cps), "1/s")
	rep.add("peak_rss_mb", median(rss), "MB")
	rep.add("alloc_mb", median(alloc), "MB")
	rep.add("setup_s", setup, "s")
	rep.note("replications_per_s", simulatedPerSecond(runs), "1/s")
	rep.note("failed_frac", rep.failedFrac(), "frac")
	return rep, nil
}

// setupTime is the median set-up time of the invocation's set-up
// children.
func (b *bench) setupTime() (float64, error) {
	var xs []float64
	start := time.Now()
	for len(xs) < setupChildren || time.Since(start) < setupWindow {
		r, err := b.spawn(modeSetup, b.w, b.store)
		if err != nil {
			return 0, err
		}
		if !r.ok() || r.SetupS <= 0 {
			return 0, fmt.Errorf("set-up child: %s", r.Failure)
		}
		xs = append(xs, r.SetupS)
	}
	return median(xs), nil
}

// simulatedPerSecond is the median rate of replications actually run.
func simulatedPerSecond(runs []childRun) float64 {
	var xs []float64
	for _, r := range runs {
		if r.WallS > 0 {
			xs = append(xs, float64(r.Simulated)/r.WallS)
		}
	}
	return median(xs)
}

// traced runs one untraced and one traced optimization, reports the
// per-layer metrics and writes the spans to one file.
func (b *bench) traced(seed uint64) (report, error) {
	b.origin = time.Now()
	plain, err := b.spawn(modeRun, b.w, b.store)
	if err != nil {
		return report{}, err
	}
	tr, err := b.spawn(modeTraced, b.w, b.store)
	if err != nil {
		return report{}, err
	}
	runs := []childRun{plain, tr}
	if plain.WallS == 0 || tr.WallS == 0 || tr.Layers == nil {
		return report{}, fmt.Errorf("traced invocation produced no timings: %q %q", plain.Failure, tr.Failure)
	}
	rep := newReport(runs)
	for _, m := range layerMetrics {
		v, ok := tr.Layers[m.name]
		if !ok {
			return report{}, fmt.Errorf("traced run reported no %s", m.name)
		}
		rep.add(m.name, v, m.unit)
	}
	rep.add("replications_per_s", simulatedPerSecond([]childRun{plain}), "1/s")
	rep.add("failed_frac", rep.failedFrac(), "frac")
	rep.add("trace_overhead_frac", tr.WallS/plain.WallS-1, "frac")
	path, err := b.writeTrace(seed, plain, tr)
	if err != nil {
		return report{}, err
	}
	rep.path = path
	return rep, nil
}

// layerMetrics are the per-layer metrics a traced child reports.
var layerMetrics = []struct{ name, unit string }{
	{"topology.build_ms", "ms"},
	{"topology.neighbors_by_vector_ns", "ns"},
	{"rng.uint64_ns", "ns"},
	{"des.schedule_step_ns", "ns"},
	{"malware.rep_us", "us"},
	{"malware.rep_allocs", "count"},
	{"rotation.rep_overhead_us", "us"},
	{"diversity.cost_us", "us"},
	{"diversity.fingerprint_ns", "ns"},
	{"diversity.clone_ns", "ns"},
	{"evalstore.open_ms", "ms"},
	{"evalstore.get_ns", "ns"},
	{"evalstore.put_us", "us"},
	{"optimize.score_hit_ns", "ns"},
	{"optimize.score_miss_ms", "ms"},
	{"optimize.score_store_hit_us", "us"},
	{"optimize.eval_cost_us", "us"},
	{"optimize.zoneok_us", "us"},
	{"optimize.fanout_overhead_frac", "frac"},
	{"optimize.round_ms", "ms"},
	{"optimize.simulate_share", "frac"},
	{"optimize.bookkeeping_share", "frac"},
	{"optimize.memo_hit_ratio", "frac"},
	{"optimize.store_hit_ratio", "frac"},
}

// traceFile is the span file of one traced invocation.
type traceFile struct {
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	ProblemSeed uint64  `json:"problem_seed"`
	UntracedS   float64 `json:"untraced_wall_s"`
	TracedS     float64 `json:"traced_wall_s"`
	// Layers holds every figure the traced child derived, including
	// ones the JSON result line leaves out.
	Layers map[string]float64 `json:"layers"`
	// Processes are the parent's spans of its children; Spans are the
	// traced child's, timed from its own start.
	Processes  []span             `json:"processes"`
	Spans      []span             `json:"spans"`
	SelfByName map[string]selfSum `json:"self_by_name"`
}

type selfSum struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (b *bench) writeTrace(seed uint64, plain, tr childRun) (string, error) {
	selfTimes(b.spans)
	sums := map[string]selfSum{}
	for _, s := range tr.Spans {
		t := sums[s.Name]
		t.Count++
		t.TotalMS += s.dur() / 1e3
		t.SelfMS += s.SelfUS / 1e3
		sums[s.Name] = t
	}
	data, err := json.MarshalIndent(traceFile{
		Workload: b.w.name, Seed: seed, ProblemSeed: b.seed,
		UntracedS: plain.WallS, TracedS: tr.WallS, Layers: tr.Layers,
		Processes: b.spans, Spans: tr.Spans, SelfByName: sums,
	}, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", b.w.name, seed))
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what an invocation prints: the JSON metrics plus notes that
// only appear on the human-readable lines above it.
type report struct {
	runs    []childRun
	names   []string
	metrics map[string]metric
	notes   []string
	path    string
}

func newReport(runs []childRun) report {
	return report{runs: runs, metrics: map[string]metric{}}
}

func (r *report) add(name string, v float64, unit string) {
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(name string, v float64, unit string) {
	r.notes = append(r.notes, fmt.Sprintf("%-34s %14.6g %s", name, v, unit))
}

func (r *report) failed() int {
	n := 0
	for _, run := range r.runs {
		if !run.ok() {
			n++
		}
	}
	return n
}

func (r *report) failedFrac() float64 { return float64(r.failed()) / float64(len(r.runs)) }

// print writes the human-readable lines, then the JSON result line.
func (r *report) print(out io.Writer) error {
	var buf bytes.Buffer
	for i, run := range r.runs {
		status := "ok"
		if !run.ok() {
			status = "FAILED: " + run.Failure
		}
		fmt.Fprintf(&buf, "run %d: wall %.3fs setup %.3fs evaluations %d store hits %d simulated replications %d (library reports %d) rss %.1fMB: %s\n",
			i+1, run.WallS, run.SetupS, run.Answer.Evaluations, run.Answer.StoreHits, run.Simulated, run.LibraryReplications, run.peakRSSMB, status)
	}
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(&buf, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(&buf, n+" (not in the JSON line)")
	}
	if r.path != "" {
		fmt.Fprintf(&buf, "spans written to %s\n", r.path)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed() == 0, len(r.runs), r.failed(), r.metrics})
	if err != nil {
		return err
	}
	buf.Write(line)
	buf.WriteByte('\n')
	_, err = out.Write(buf.Bytes())
	return err
}

// recordAnswers solves each listed problem seed once in this process
// and prints its answer, wall time and heap allocation as a JSON line —
// the input for answers.json.
func recordAnswers(w *workload, seeds string, out io.Writer) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, f := range strings.Split(seeds, ",") {
		seed, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return err
		}
		res, err := solve(w, seed, 0, dir)
		if err != nil {
			return err
		}
		line, err := json.Marshal(struct {
			answer
			WallS   float64 `json:"wall_s"`
			AllocMB float64 `json:"alloc_mb"`
		}{res.Answer, res.WallS, float64(res.AllocBytes) / (1 << 20)})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	return nil
}
