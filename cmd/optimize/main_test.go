package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Small-but-real settings: powergrid, 15-day horizon, compromised-ratio
// objective. The strategies must beat random placement at the same
// budget.
func smallArgs(strategy string) []string {
	return []string{
		"-topo", "powergrid", "-strategy", strategy, "-objective", "ratio",
		"-budget", "20", "-reps", "24", "-horizon", "360",
		"-iterations", "150", "-seed", "7",
	}
}

// The acceptance criterion: on the powergrid example every strategy finds
// an assignment with strictly lower attack success / compromised ratio
// than random placement at the same budget, deterministically under a
// fixed seed, and the memoization cache reports hits for the stochastic
// searches.
func TestStrategiesBeatRandomPlacement(t *testing.T) {
	type summary struct {
		Random struct {
			Value      float64 `json:"value"`
			FinalRatio float64 `json:"final_ratio"`
		} `json:"random"`
		Best struct {
			Value      float64 `json:"value"`
			FinalRatio float64 `json:"final_ratio"`
			Cost       float64 `json:"cost"`
		} `json:"best"`
		CacheHits int `json:"cache_hits"`
	}
	for _, strategy := range []string{"greedy", "anneal", "genetic"} {
		var buf bytes.Buffer
		if err := run(t.Context(), append(smallArgs(strategy), "-json"), &buf, io.Discard); err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		var s summary
		if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
			t.Fatalf("%s: decoding: %v", strategy, err)
		}
		if s.Best.Value >= s.Random.Value {
			t.Errorf("%s: best value %.4f not strictly below random %.4f",
				strategy, s.Best.Value, s.Random.Value)
		}
		if s.Best.FinalRatio >= s.Random.FinalRatio {
			t.Errorf("%s: best compromised ratio %.4f not strictly below random %.4f",
				strategy, s.Best.FinalRatio, s.Random.FinalRatio)
		}
		if s.Best.Cost > 20 {
			t.Errorf("%s: best cost %.1f exceeds budget", strategy, s.Best.Cost)
		}
		if strategy != "greedy" && s.CacheHits == 0 {
			t.Errorf("%s: expected memoization cache hits", strategy)
		}
	}
}

// Same seed must reproduce the same full output, byte for byte.
func TestOutputDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(t.Context(), smallArgs("anneal"), &a, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), smallArgs("anneal"), &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different output")
	}
}

// The text report carries the headline sections.
func TestTextOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t.Context(), smallArgs("greedy"), &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"baseline", "random-placement", "best-found",
		"best assignment", "Pareto front", "cache hits"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// Bad flags surface as errors, not panics.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-strategy", "hillclimb"},
		{"-topo", "mesh"},
		{"-threat", "mirai"},
		{"-classes", "GPU"},
		{"-objective", "entropy"},
	} {
		var buf bytes.Buffer
		if err := run(t.Context(), append(args, "-reps", "2", "-horizon", "24"), &buf, io.Discard); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// The grid:N selector must build the generated meshed grid and complete
// a bounded greedy search end to end; malformed selectors must error.
func TestGridTopologySelector(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{
		"-topo", "grid:40", "-strategy", "greedy", "-classes", "PLC,Protocol",
		"-budget", "12", "-reps", "4", "-horizon", "120", "-iterations", "1", "-seed", "3",
	}, &buf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "best-found") {
		t.Fatalf("grid run produced no report:\n%s", buf.String())
	}
	for _, bad := range []string{"grid:", "grid:0", "grid:-5", "grid:abc", "grid:10:0", "grid:10:x"} {
		if err := run(t.Context(), []string{"-topo", bad, "-reps", "2", "-horizon", "24"}, &buf, io.Discard); err == nil {
			t.Errorf("topo %q: expected error", bad)
		}
	}
}

// The portfolio strategy is selectable from the CLI and reports all
// three stage prefixes in its JSON trace.
func TestPortfolioStrategyCLI(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{
		"-topo", "powergrid", "-strategy", "portfolio", "-budget", "12",
		"-reps", "4", "-horizon", "120", "-iterations", "6", "-seed", "2", "-json",
	}, &buf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, stage := range []string{"greedy: ", "anneal: ", "genetic: "} {
		if !strings.Contains(out, stage) {
			t.Errorf("portfolio trace missing %q stage", stage)
		}
	}
}

// The pareto strategy is selectable from the CLI, respects -objectives,
// and reports a multi-point non-dominated front with detection columns.
func TestParetoStrategyCLI(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{
		"-topo", "powergrid", "-strategy", "pareto", "-budget", "20",
		"-reps", "6", "-horizon", "168", "-iterations", "5", "-pop", "8",
		"-seed", "4", "-json",
	}, &buf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Pareto []struct {
			Cost           float64 `json:"cost"`
			PSuccess       float64 `json:"p_success"`
			MeanDetLatency float64 `json:"mean_det_latency"`
		} `json:"pareto"`
	}
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Pareto) < 2 {
		t.Fatalf("pareto front has %d point(s), want trade-offs", len(res.Pareto))
	}
	for i, p := range res.Pareto {
		if p.Cost > 20 {
			t.Errorf("front point %d cost %.1f over budget", i, p.Cost)
		}
	}
	// A restricted axis set must also be accepted...
	buf.Reset()
	if err := run(t.Context(), []string{
		"-topo", "powergrid", "-strategy", "pareto", "-budget", "20",
		"-reps", "4", "-horizon", "120", "-iterations", "3", "-pop", "8",
		"-seed", "4", "-objectives", "cost,success",
	}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	// ...and junk axes rejected.
	if err := run(t.Context(), []string{"-objectives", "entropy", "-reps", "2", "-horizon", "24"}, &buf, io.Discard); err == nil {
		t.Fatal("bad -objectives accepted")
	}
}

// -screen pins the per-round simulation bound; the run must stay within
// budget and produce the standard report.
func TestScreenFlagCLI(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{
		"-topo", "grid:40", "-strategy", "greedy", "-classes", "PLC,Protocol",
		"-budget", "12", "-reps", "4", "-horizon", "120", "-iterations", "1",
		"-seed", "3", "-screen", "30",
	}, &buf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "best-found") {
		t.Fatalf("screened grid run produced no report:\n%s", buf.String())
	}
}

// -rotate adds the schedule dimension: the search may pair placements
// with rotation policies, rotation columns appear, the winning schedule
// is reported, and bad selectors error.
func TestRotateFlagCLI(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{
		"-topo", "grid:60", "-objective", "foothold", "-budget", "30",
		"-reps", "8", "-horizon", "240", "-seed", "7",
		"-rotate", "triggered,adaptive:24x2",
	}, &buf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"best schedule:", "Foothold", "Reinf", "schedule"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rotated output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "best schedule: adaptive:24x2") {
		t.Fatalf("expected the adaptive schedule to win at this seed:\n%s", out)
	}
	for _, bad := range []string{"hourly:4", "periodic:", "periodic:0", "triggered:12x0"} {
		if err := run(t.Context(), []string{"-rotate", bad, "-reps", "2", "-horizon", "24"}, &buf, io.Discard); err == nil {
			t.Errorf("rotate %q: expected error", bad)
		}
	}
}

// -max-per-zone constrains the search; an unconstrained run on the same
// seed may use more distinct variants than the capped one.
func TestMaxPerZoneFlagCLI(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{
		"-topo", "powergrid", "-budget", "20", "-reps", "4", "-horizon", "120",
		"-iterations", "4", "-seed", "2", "-max-per-zone", "2", "-json",
	}, &buf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "best_rotation") {
		t.Fatalf("JSON output missing best_rotation:\n%s", buf.String())
	}
	if err := run(t.Context(), []string{"-max-per-zone", "-3", "-reps", "2", "-horizon", "24"}, &buf, io.Discard); err == nil {
		t.Error("negative -max-per-zone accepted")
	}
}

// -objective foothold selects the intruder-dwell indicator.
func TestFootholdObjectiveCLI(t *testing.T) {
	var buf bytes.Buffer
	err := run(t.Context(), []string{
		"-topo", "powergrid", "-objective", "foothold", "-budget", "12",
		"-reps", "4", "-horizon", "120", "-iterations", "2", "-seed", "2",
	}, &buf, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "min-foothold") {
		t.Fatalf("output missing min-foothold objective:\n%s", buf.String())
	}
}

// Cancelling the run context mid-search (what SIGINT/SIGTERM do via
// signal.NotifyContext in main) must still print the full report with
// the degraded incumbent, and surface the distinct errDegraded so main
// exits with exitDegraded instead of 1.
func TestRunDegradedOnCancel(t *testing.T) {
	longArgs := func(extra ...string) []string {
		return append([]string{
			"-topo", "powergrid", "-strategy", "anneal", "-objective", "ratio",
			"-budget", "20", "-reps", "16", "-horizon", "240",
			"-iterations", "10000000", "-seed", "3",
		}, extra...)
	}
	start := func(args []string) (out, errb *bytes.Buffer, done chan error, cancel context.CancelFunc) {
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		out, errb = &bytes.Buffer{}, &bytes.Buffer{}
		done = make(chan error, 1)
		go func() { done <- run(ctx, args, out, errb) }()
		return out, errb, done, cancel
	}
	// Table mode: the report must carry the DEGRADED marker and still
	// include the best-found row.
	out, errb, done, cancel := start(longArgs())
	time.Sleep(500 * time.Millisecond)
	cancel()
	err := <-done
	var deg *errDegraded
	if !errors.As(err, &deg) {
		t.Fatalf("err = %v, want *errDegraded", err)
	}
	for _, want := range []string{"best-found", "DEGRADED:", "(skipped: run interrupted)"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("degraded table output missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(errb.String(), "interrupted") {
		t.Fatalf("stderr missing interruption notice: %q", errb.String())
	}
	// JSON mode: the document must parse and carry the degraded reason
	// plus a usable incumbent.
	out, _, done, cancel = start(longArgs("-json"))
	time.Sleep(500 * time.Millisecond)
	cancel()
	if err := <-done; !errors.As(err, &deg) {
		t.Fatalf("json mode err = %v, want *errDegraded", err)
	}
	var res struct {
		Degraded string `json:"degraded"`
		Best     struct {
			Cost float64 `json:"cost"`
		} `json:"best"`
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("degraded -json output does not parse: %v", err)
	}
	if res.Degraded == "" {
		t.Fatal("degraded JSON missing the degraded reason")
	}
	if res.Best.Cost > 20 {
		t.Fatalf("degraded incumbent cost %.1f over budget", res.Best.Cost)
	}
}

// The full crash-recovery loop at CLI level: interrupt a -store run,
// then re-run it against the same store (under a different worker
// count) and get stdout byte-identical to an uninterrupted run — the
// user-facing form of the replay-based resume contract.
func TestRunResumeReproducesCleanOutput(t *testing.T) {
	store := filepath.Join(t.TempDir(), "evals.store")
	base := []string{
		"-topo", "powergrid", "-strategy", "anneal", "-objective", "ratio",
		"-budget", "20", "-reps", "16", "-horizon", "240",
		"-iterations", "400", "-seed", "9", "-json",
	}
	var clean bytes.Buffer
	if err := run(t.Context(), append([]string{"-workers", "4"}, base...), &clean, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Interrupt a store-backed run partway through.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-store", store, "-workers", "4"}, base...), io.Discard, io.Discard)
	}()
	time.Sleep(300 * time.Millisecond)
	cancel()
	err := <-done
	var deg *errDegraded
	if err != nil && !errors.As(err, &deg) {
		t.Fatalf("interrupted run: %v", err)
	}
	// Resume under different worker counts: stdout must match the clean
	// run byte for byte, stderr must report the store serving the replay.
	for _, workers := range []string{"1", "3"} {
		var out, errb bytes.Buffer
		if err := run(t.Context(), append([]string{"-store", store, "-workers", workers}, base...), &out, &errb); err != nil {
			t.Fatalf("resume with %s workers: %v", workers, err)
		}
		if out.String() != clean.String() {
			t.Fatalf("resumed stdout (workers=%s) differs from the clean run", workers)
		}
		if !strings.Contains(errb.String(), " hits, ") || strings.Contains(errb.String(), ": 0 hits") {
			t.Fatalf("stderr missing a non-zero store hits notice: %q", errb.String())
		}
	}
}

// -progress adds a stderr ticker without touching stdout: the table must
// stay byte-identical to a bare run, and the ticker must report rounds
// and completion.
func TestRunProgressTicker(t *testing.T) {
	var bare bytes.Buffer
	if err := run(t.Context(), smallArgs("greedy"), &bare, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if err := run(t.Context(), append(smallArgs("greedy"), "-progress"), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if out.String() != bare.String() {
		t.Fatal("-progress changed stdout")
	}
	for _, want := range []string{"round", "done", "evaluations"} {
		if !strings.Contains(errb.String(), want) {
			t.Fatalf("progress stderr missing %q:\n%s", want, errb.String())
		}
	}
}

// -telemetry-json writes the run report; the stdout JSON carries the
// telemetry key only when a telemetry flag asked for it, so clean -json
// output stays byte-stable.
func TestRunTelemetryJSON(t *testing.T) {
	var clean bytes.Buffer
	if err := run(t.Context(), append(smallArgs("anneal"), "-json"), &clean, io.Discard); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), `"telemetry"`) {
		t.Fatal("clean -json output leaked the telemetry report")
	}
	report := filepath.Join(t.TempDir(), "run.telemetry.json")
	var out bytes.Buffer
	if err := run(t.Context(), append(smallArgs("anneal"), "-json", "-telemetry-json", report), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"telemetry"`) {
		t.Fatal("-telemetry-json run should embed the report in -json output")
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Strategy      string             `json:"strategy"`
		Evaluations   int                `json:"evaluations"`
		CacheHitRatio float64            `json:"cache_hit_ratio"`
		Rounds        int                `json:"rounds"`
		Elapsed       float64            `json:"elapsed_seconds"`
		Wall          map[string]float64 `json:"strategy_wall_seconds"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("telemetry report does not parse: %v", err)
	}
	if rep.Strategy != "anneal" || rep.Evaluations == 0 || rep.Rounds == 0 || rep.Elapsed <= 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
	if rep.CacheHitRatio < 0 || rep.CacheHitRatio > 1 {
		t.Fatalf("cache hit ratio %v outside [0,1]", rep.CacheHitRatio)
	}
	if len(rep.Wall) == 0 {
		t.Fatalf("report missing per-strategy wall time")
	}
	// The telemetry-enabled stdout minus the telemetry key must still be
	// the clean document: telemetry observes, it never perturbs.
	var full map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	delete(full, "telemetry")
	var want map[string]json.RawMessage
	if err := json.Unmarshal(clean.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if len(full) != len(want) {
		t.Fatalf("telemetry run changed the result document shape")
	}
	for k, v := range want {
		if string(full[k]) != string(v) {
			t.Fatalf("telemetry run changed result field %q", k)
		}
	}
}

// -metrics-listen serves /metrics and pprof during the run; a bad
// address fails fast before any search work.
func TestRunMetricsListen(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(t.Context(), append(smallArgs("greedy"), "-metrics-listen", "127.0.0.1:0"), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errb.String(), "serving /metrics and /debug/pprof on http://127.0.0.1:") {
		t.Fatalf("stderr missing the listen notice: %q", errb.String())
	}
	if !strings.Contains(out.String(), "best-found") {
		t.Fatal("metrics-listen run produced no report")
	}
	if err := run(t.Context(), []string{"-metrics-listen", "256.0.0.1:99999", "-reps", "2", "-horizon", "24"}, &out, io.Discard); err == nil {
		t.Fatal("bad -metrics-listen address accepted")
	}
}

// The durable store at CLI level: a second identical run is served from
// the store (stderr reports the hits) and prints identical stdout.
func TestRunStoreWarmStart(t *testing.T) {
	store := filepath.Join(t.TempDir(), "evals.store")
	args := append(smallArgs("greedy"), "-store", store)
	var first, firstErr bytes.Buffer
	if err := run(t.Context(), args, &first, &firstErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(firstErr.String(), "new measurements") {
		t.Fatalf("first run stderr missing store notice: %q", firstErr.String())
	}
	var second, secondErr bytes.Buffer
	if err := run(t.Context(), args, &second, &secondErr); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("store-backed re-run printed different stdout")
	}
	if !strings.Contains(secondErr.String(), "0 new measurements") {
		t.Fatalf("warm re-run stderr should report no new measurements: %q", secondErr.String())
	}
}
