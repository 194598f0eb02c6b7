package optimize

import (
	"context"
	"encoding/json"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"diversify/internal/rotation"
)

// resultJSON renders the byte-identity surface of a run.
func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// withRotations widens the test problem to the placement × schedule
// space, so stored records exercise the Rot dimension too.
func withRotations(p Problem) Problem {
	p.Rotations = []rotation.Spec{{Kind: rotation.Periodic, Period: 48, Batch: 2}}
	p.Budget = 40
	return p
}

// A run killed mid-search and re-run against the same store must
// reproduce the uninterrupted run's Result byte for byte — for every
// strategy, and regardless of the worker counts on either side of the
// crash. This is the replay-based resume contract: the store is the
// checkpoint.
func TestStoreResumeByteIdentical(t *testing.T) {
	for _, name := range []string{"greedy", "anneal", "pareto"} {
		t.Run(name, func(t *testing.T) {
			o, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			clean, err := Run(withRotations(testProblem(31)), o)
			if err != nil {
				t.Fatal(err)
			}
			want := resultJSON(t, clean)

			// "Crash" the run: cancel after a fixed number of replications,
			// leaving behind what the store holds at that point.
			store := filepath.Join(t.TempDir(), "evals.store")
			p := withRotations(testProblem(31))
			p.Workers = 4
			ctx, cancel := context.WithCancel(context.Background())
			var calls atomic.Int64
			p.repHook = func(Candidate, int) {
				if calls.Add(1) == int64(20*p.Reps) {
					cancel()
				}
			}
			res, err := RunWith(ctx, p, o, RunOptions{StorePath: store})
			cancel()
			if err != nil {
				t.Fatalf("interrupted run failed outright: %v", err)
			}
			if res.Degraded == "" {
				t.Skip("search finished before the injected crash; nothing to resume")
			}
			if res.Stats.StorePuts == 0 {
				t.Fatal("interrupted run stored nothing")
			}

			for _, workers := range []int{1, 3, 7} {
				p := withRotations(testProblem(31))
				p.Workers = workers
				resumed, err := RunWith(context.Background(), p, o, RunOptions{StorePath: store})
				if err != nil {
					t.Fatalf("resume with %d workers: %v", workers, err)
				}
				if resumed.Stats.StoreHits == 0 {
					t.Fatalf("resume with %d workers served nothing from the store: %+v", workers, resumed.Stats)
				}
				if got := resultJSON(t, resumed); got != want {
					t.Fatalf("resumed run (%d workers) diverged from the clean run:\n got %s\nwant %s", workers, got, want)
				}
			}
		})
	}
}

// A quarantine is stored as a tombstone: re-running against the store
// serves the verdict instead of replaying the candidate's panics, and
// the result is unchanged. The poisoned option sits on a pair the
// baseline reads: greedy's round 0 replays an option the baseline never
// reads from the baseline, so its fault hook would never fire.
func TestStoreServesQuarantine(t *testing.T) {
	store := filepath.Join(t.TempDir(), "evals.store")
	o, _ := ByName("greedy")
	reads := baselineReads(t, testProblem(59))
	opt := -1
	for i, o := range testProblem(59).Options {
		if readsOf(reads, o.Node, o.Class) > 0 {
			opt = i
			break
		}
	}
	if opt < 0 {
		t.Fatal("the baseline reads no option's pair")
	}
	poisoned := func() Problem {
		p := testProblem(59)
		poison := p.base()
		p.Options[opt].Apply(poison)
		poisonFP := poison.Fingerprint()
		p.repHook = func(c Candidate, rep int) {
			if c.Rot < 0 && c.A.Fingerprint() == poisonFP {
				panic("injected evaluation fault")
			}
		}
		return p
	}
	first, err := RunWith(context.Background(), poisoned(), o, RunOptions{StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Quarantined != 1 || first.Stats.Retries == 0 {
		t.Fatalf("first run: %d quarantined, %d retries — want 1 and > 0", first.Stats.Quarantined, first.Stats.Retries)
	}
	again, err := RunWith(context.Background(), poisoned(), o, RunOptions{StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.Retries != 0 || again.Stats.Quarantined != 1 {
		t.Fatalf("re-run: %d retries, %d quarantined — want 0 and 1", again.Stats.Retries, again.Stats.Quarantined)
	}
	if resultJSON(t, again) != resultJSON(t, first) {
		t.Fatal("re-run served from the store diverged from the first run")
	}
}

// Attaching the durable store must never change what a run computes —
// neither when filling it (first run) nor when warm-starting from it
// (second run): stored measurements are bit-identical to re-simulated
// ones, and Value/Cost are recomputed under the consuming run's own
// objective and cost model.
func TestStoreDoesNotPerturbResults(t *testing.T) {
	store := filepath.Join(t.TempDir(), "evals.store")
	o, _ := ByName("greedy")
	clean, err := Run(testProblem(51), o)
	if err != nil {
		t.Fatal(err)
	}
	filled, err := RunWith(context.Background(), testProblem(51), o, RunOptions{StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, filled) != resultJSON(t, clean) {
		t.Fatal("filling the store changed the run's result")
	}
	if filled.Stats.StorePuts == 0 || filled.Stats.StoreHits != 0 {
		t.Fatalf("first run: %d puts / %d hits, want puts > 0 and hits == 0", filled.Stats.StorePuts, filled.Stats.StoreHits)
	}
	warm, err := RunWith(context.Background(), testProblem(51), o, RunOptions{StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, warm) != resultJSON(t, clean) {
		t.Fatal("warm-started run diverged from the clean run")
	}
	// An identical re-run replays entirely from the store (the hit count
	// exceeds CacheMisses by the random comparison row, which is evaluated
	// outside the archive but is store-served too).
	if warm.Stats.StoreHits < warm.CacheMisses || warm.Stats.StorePuts != 0 {
		t.Fatalf("identical re-run: %d hits of %d evaluations, %d puts — want all hits, no puts",
			warm.Stats.StoreHits, warm.CacheMisses, warm.Stats.StorePuts)
	}
}

// The store's reason to exist: a re-optimization under a tweaked budget
// re-uses the measurements of every candidate both searches visit,
// skipping >= 90% of its re-evaluations — and still produces exactly
// what a cold run at the new budget would.
func TestStoreWarmStartAcrossBudgetTweak(t *testing.T) {
	store := filepath.Join(t.TempDir(), "evals.store")
	o, _ := ByName("greedy")
	fill := testProblem(53)
	fill.Budget = 22
	if _, err := RunWith(context.Background(), fill, o, RunOptions{StorePath: store}); err != nil {
		t.Fatal(err)
	}
	tweaked := testProblem(53)
	tweaked.Budget = 18
	cold, err := Run(tweaked, o)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunWith(context.Background(), tweaked, o, RunOptions{StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, warm) != resultJSON(t, cold) {
		t.Fatal("warm-started budget-tweaked run diverged from the cold run")
	}
	if warm.CacheMisses == 0 {
		t.Fatal("budget-tweaked run evaluated nothing")
	}
	hitRate := float64(warm.Stats.StoreHits) / float64(warm.CacheMisses)
	if hitRate < 0.9 {
		t.Fatalf("warm start skipped only %.0f%% of %d re-evaluations (want >= 90%%)",
			hitRate*100, warm.CacheMisses)
	}
	t.Logf("budget 22 -> 18 warm start: %d/%d evaluations served from the store (%.0f%%)",
		warm.Stats.StoreHits, warm.CacheMisses, hitRate*100)
}

// Changing the objective only remaps measurements to a new scalar, so a
// warm start across an objective tweak also re-uses the store — the
// measurements themselves are objective-blind.
func TestStoreWarmStartAcrossObjectiveTweak(t *testing.T) {
	store := filepath.Join(t.TempDir(), "evals.store")
	o, _ := ByName("greedy")
	fill := testProblem(55)
	if _, err := RunWith(context.Background(), fill, o, RunOptions{StorePath: store}); err != nil {
		t.Fatal(err)
	}
	tweaked := testProblem(55)
	tweaked.Objective = MaximizeTTSF
	cold, err := Run(tweaked, o)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunWith(context.Background(), tweaked, o, RunOptions{StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, warm) != resultJSON(t, cold) {
		t.Fatal("warm-started objective-tweaked run diverged from the cold run")
	}
	if warm.Stats.StoreHits == 0 {
		t.Fatal("objective-tweaked run got no store hits")
	}
}

// A store filled under a different evaluation spec (other seed → other
// replication streams) must contribute nothing: its measurements answer
// a different question.
func TestStoreIgnoresMismatchedSpec(t *testing.T) {
	store := filepath.Join(t.TempDir(), "evals.store")
	o, _ := ByName("greedy")
	if _, err := RunWith(context.Background(), testProblem(57), o, RunOptions{StorePath: store}); err != nil {
		t.Fatal(err)
	}
	other, err := RunWith(context.Background(), testProblem(58), o, RunOptions{StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	if other.Stats.StoreHits != 0 {
		t.Fatalf("run under a different seed served %d store hits", other.Stats.StoreHits)
	}
	if other.Stats.StorePuts == 0 {
		t.Fatal("run under a different seed stored nothing")
	}
}

// The stale-science canary keys the store on how the simulator answers,
// not only on what was asked: re-running against the same store is
// fully warm, while a canary that measures differently (here: through
// its seed seam, standing in for a changed engine) makes every stored
// measurement unservable.
func TestStoreCanaryKeysMeasurements(t *testing.T) {
	store := filepath.Join(t.TempDir(), "evals.store")
	o, _ := ByName("greedy")
	if _, err := RunWith(context.Background(), testProblem(61), o, RunOptions{StorePath: store}); err != nil {
		t.Fatal(err)
	}
	again, err := RunWith(context.Background(), testProblem(61), o, RunOptions{StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.StoreHits < again.CacheMisses || again.Stats.StorePuts != 0 {
		t.Fatalf("same-canary re-run: %d store hits for %d evaluations and %d fresh puts, want fully warm",
			again.Stats.StoreHits, again.CacheMisses, again.Stats.StorePuts)
	}
	stale := testProblem(61)
	stale.canarySeed = defaultCanarySeed + 1
	cold, err := RunWith(context.Background(), stale, o, RunOptions{StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.StoreHits != 0 {
		t.Fatalf("run under a different canary served %d store hits, want 0", cold.Stats.StoreHits)
	}
}

// A canary that measures nothing guards nothing: on the test problem's
// catalog and profile it must drive an attack that compromises nodes.
// It runs on every store-attached RunWith, so its cost is logged.
func TestCanaryExercisesEngine(t *testing.T) {
	p := testProblem(61)
	p.normalize()
	start := time.Now()
	meas, err := runCanary(&p)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("canary took %v", time.Since(start))
	compromised := 0.0
	for _, m := range meas {
		compromised += m[2] // final compromised ratio
	}
	if len(meas) != canaryReps || compromised == 0 {
		t.Fatalf("canary ran %d replications with total compromised ratio %v", len(meas), compromised)
	}
}
