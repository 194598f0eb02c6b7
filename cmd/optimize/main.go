// Command optimize runs the step-4 placement search: given a reference
// topology, a threat profile and a budget, it finds the diversity
// assignment minimizing attack success (or the chosen indicator) and
// compares it against the undiversified baseline and a random placement
// at the same budget.
//
// Usage:
//
//	optimize -topo powergrid -strategy anneal -budget 40 -iterations 300 -seed 7
//	optimize -strategy genetic -classes OS,Protocol -json
//	optimize -topo grid:200 -classes PLC,Protocol -reps 8 -iterations 2 -budget 20
//	optimize -topo grid:200 -strategy pareto -objectives cost,success,detection
//	optimize -topo grid:100 -screen 200   # greedy, top-200 surrogate screen
//	optimize -topo grid:60 -rotate triggered:48,periodic:72 -budget 24
//	optimize -max-per-zone 2              # fleet cap: ≤2 platforms per class per zone
//	optimize -store run.store             # warm-start from, and resume into, an evaluation store
//	optimize -progress                    # live one-line-per-round ticker on stderr
//	optimize -json -telemetry-json run.telemetry.json   # machine-readable run report
//	optimize -metrics-listen 127.0.0.1:9090             # /metrics + /debug/pprof during the run
//
// Telemetry observes the search, it never steers it: the optimization
// result is byte-identical with or without -progress, -telemetry-json or
// -metrics-listen.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"diversify"
	"diversify/internal/telemetry"
)

// exitDegraded is the exit code of an interrupted-but-salvaged run: the
// search was cancelled (SIGINT/SIGTERM or deadline) and the printed
// result is the best-so-far incumbent, not a completed optimization.
// Distinct from 1 (hard failure) so scripts can tell the two apart.
const exitDegraded = 3

// errDegraded signals that the run was interrupted but still produced
// (and printed) a best-so-far result.
type errDegraded struct{ reason string }

func (e *errDegraded) Error() string { return "degraded run: " + e.reason }

func main() {
	// SIGINT/SIGTERM cancel the search context: the run drains in-flight
	// replications, prints the degraded incumbent and exits with
	// exitDegraded instead of dying mid-table. A second signal kills the
	// process the usual way (stop() restores default delivery).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	var deg *errDegraded
	switch {
	case err == nil:
	case errors.As(err, &deg):
		fmt.Fprintln(os.Stderr, "optimize:", err)
		os.Exit(exitDegraded)
	default:
		fmt.Fprintln(os.Stderr, "optimize:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	var (
		topo        = fs.String("topo", "tiered", "topology: tiered, powergrid, or grid:N[:regions] (generated N-substation meshed grid)")
		threat      = fs.String("threat", "stuxnet", "threat profile: stuxnet, duqu, flame")
		strategy    = fs.String("strategy", "greedy", "search strategy: greedy, anneal, genetic, portfolio, pareto")
		classes     = fs.String("classes", "OS,PLC,Protocol", "comma-separated component classes (OS, PLC, Protocol, HMI, EngTools, Historian)")
		objective   = fs.String("objective", "success", "minimized indicator: success, ratio, ttsf, foothold")
		objectives  = fs.String("objectives", "", "Pareto front axes, comma-separated from cost,success,detection,foothold (empty = cost,success,detection)")
		screen      = fs.Int("screen", 0, "options greedy simulates per round (0 = default surrogate screen, -1 = exhaustive)")
		rotate      = fs.String("rotate", "", "comma-separated rotation schedules the search may pair with placements: policy:period[xbatch] with policy periodic, triggered or adaptive (e.g. triggered:48, periodic:24x2)")
		maxZone     = fs.Int("max-per-zone", 0, "at most k distinct variants per component class per zone (0 = unconstrained)")
		budget      = fs.Float64("budget", 40, "diversification budget (cost-model units)")
		platform    = fs.Float64("platform-cost", 5, "cost per extra distinct variant per class")
		nodeCost    = fs.Float64("node-cost", 2, "cost per node deviating from the default")
		iters       = fs.Int("iterations", 0, "search iterations (0 = strategy default)")
		pop         = fs.Int("pop", 0, "genetic and pareto (NSGA-II) population size (0 = default)")
		reps        = fs.Int("reps", 64, "Monte-Carlo replications per candidate")
		horizon     = fs.Float64("horizon", 720, "observation window in hours")
		seed        = fs.Uint64("seed", 1, "RNG seed (fixes the whole search)")
		workers     = fs.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS)")
		asJSON      = fs.Bool("json", false, "emit the full result as JSON")
		storePath   = fs.String("store", "", "durable evaluation store: append completed measurements here and warm-start re-optimizations from them; re-running an interrupted search with the same store resumes it, byte for byte")
		traceSample = fs.Float64("trace-sample", 0, "fraction of replications traced for the post-search causal explanations in [0,1] (0 = off; see cmd/diversify-trace for the full toolchain)")
		progress    = fs.Bool("progress", false, "print a live one-line-per-round progress ticker to stderr")
		telemJSON   = fs.String("telemetry-json", "", "write the JSON run telemetry report to this file")
		metricsAt   = fs.String("metrics-listen", "", "serve Prometheus /metrics and /debug/pprof on this address during the run (e.g. 127.0.0.1:9090)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The progress sink owns all stderr bookkeeping (store notices,
	// quarantines, the optional live ticker) so stdout stays
	// machine-clean and the messages are consistent.
	sink := telemetry.NewProgress(errw, *progress)
	var reg *diversify.MetricsRegistry
	var srvDone func()
	if *metricsAt != "" {
		reg = diversify.NewMetricsRegistry()
		// Listen before the search starts so a bad address fails fast.
		ln, err := net.Listen("tcp", *metricsAt)
		if err != nil {
			return fmt.Errorf("metrics-listen: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		fmt.Fprintf(errw, "optimize: serving /metrics and /debug/pprof on http://%s\n", ln.Addr())
		srvDone = func() {
			shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(shutCtx)
		}
		defer srvDone()
	}
	res, err := diversify.OptimizeContext(ctx, diversify.OptimizeConfig{
		Topology: *topo, Threat: *threat, Strategy: *strategy,
		Classes:    splitList(*classes),
		Objective:  *objective,
		Objectives: splitList(*objectives),
		ScreenTop:  *screen,
		Rotations:  splitList(*rotate),
		MaxPerZone: *maxZone,
		Budget:     *budget, PlatformCost: *platform, NodeCost: *nodeCost,
		Iterations: *iters, Population: *pop,
		Reps: *reps, HorizonHours: *horizon, Seed: *seed, Workers: *workers,
		Store: *storePath, TraceSample: *traceSample,
		ProgressSink: sink, Metrics: reg,
	})
	if err != nil {
		return err
	}
	if *telemJSON != "" && res.Telemetry != nil {
		data, err := json.MarshalIndent(res.Telemetry, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*telemJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	// Stdout must stay byte-identical between clean and store-resumed
	// runs: unless a telemetry flag asked for the report, strip
	// it from the printed result (the always-attached progress sink would
	// otherwise embed wall-clock noise in -json output).
	if !*progress && *telemJSON == "" && *metricsAt == "" {
		res.Telemetry = nil
	}
	// A degraded (interrupted) run still prints the full report — table
	// or JSON — then surfaces the distinct exit code through errDegraded.
	var degErr error
	if res.Degraded != "" {
		fmt.Fprintln(errw, "optimize: interrupted —", res.Degraded)
		degErr = &errDegraded{reason: res.Degraded}
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
		return degErr
	}
	fmt.Fprintf(out, "topology=%s threat=%s strategy=%s objective=%s budget=%.0f seed=%d reps=%d\n\n",
		*topo, *threat, res.Strategy, res.Objective, res.Budget, *seed, *reps)
	fmt.Fprintf(out, "%-18s %-8s %-10s %-10s %-10s %-10s %-10s %-10s %-10s %-8s %-8s\n",
		"candidate", "cost", "value", "Psuccess", "CRfinal", "TTSFmean", "Pdetect", "DetLatMean", "Foothold", "Rot", "Reinf")
	row := func(name string, s diversify.OptimizeScore) {
		fmt.Fprintf(out, "%-18s %-8.1f %-10.4f %-10.3f %-10.3f %-10.1f %-10.3f %-10.1f %-10.1f %-8.1f %-8.2f\n",
			name, s.Cost, s.Value, s.PSuccess, s.FinalRatio, s.MeanTTSF, s.PDetect, s.MeanDetLatency,
			s.MeanFoothold, s.MeanRotations, s.MeanReinfections)
	}
	row("baseline", res.Baseline)
	if res.Degraded == "" {
		row("random-placement", res.Random)
	} else {
		fmt.Fprintf(out, "%-18s (skipped: run interrupted)\n", "random-placement")
	}
	row("best-found", res.Best)
	fmt.Fprintf(out, "\nbest schedule: %s\n", res.BestRotation)
	fmt.Fprintf(out, "best assignment (%d decisions, fingerprint %016x):\n",
		len(res.Decisions), res.BestFingerprint)
	for _, d := range res.Decisions {
		fmt.Fprintf(out, "  %-18s %-12s -> %s\n", d.Node, d.Class, d.Variant)
	}
	axes := splitList(*objectives)
	if len(axes) == 0 {
		axes = []string{"cost", "success", "detection"}
	}
	fmt.Fprintf(out, "\n%s Pareto front (%d points):\n", strings.Join(axes, " × "), len(res.Pareto))
	fmt.Fprintf(out, "  %-8s %-10s %-10s %-10s %-10s %-14s %-10s\n",
		"cost", "value", "Psuccess", "Pdetect", "DetLatMean", "schedule", "decisions")
	for _, p := range res.Pareto {
		fmt.Fprintf(out, "  %-8.1f %-10.4f %-10.3f %-10.3f %-10.1f %-14s %d\n",
			p.Cost, p.Value, p.PSuccess, p.PDetect, p.MeanDetLatency, p.Rotation, len(p.Decisions))
	}
	fmt.Fprintf(out, "\nsearch: %d steps, %d candidates evaluated (%d replications scored), cache hits %d\n",
		len(res.Trace), res.Evaluations, res.Replications, res.CacheHits)
	for _, ex := range res.Explanations {
		fmt.Fprintf(out, "\nexplanation [%s, schedule %s]: %d/%d replications traced, %d records\n",
			ex.Candidate, ex.Rotation, ex.Sampled, ex.Replications, ex.Records)
		if len(ex.Paths) > 0 {
			fmt.Fprintf(out, "  top path: %d× %s\n", ex.Paths[0].Count, ex.Paths[0].Path)
		}
		if len(ex.ChokePoints) > 0 {
			c := ex.ChokePoints[0]
			fmt.Fprintf(out, "  top choke point: %d blocked at %s (%s)\n", c.Blocked, c.Node, c.Variant)
		}
		if rc := ex.RotationChurn; rc.Rotations > 0 {
			fmt.Fprintf(out, "  rotation churn: %d rotations, %d evictions, %d reinfections\n",
				rc.Rotations, rc.Evictions, rc.Reinfections)
		}
	}
	if degErr != nil {
		fmt.Fprintf(out, "\nDEGRADED: %s (best-so-far result, not a completed search)\n", res.Degraded)
	}
	return degErr
}

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
