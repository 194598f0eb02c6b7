package des

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"diversify/internal/rng"
)

// draws is a replication body's result: a few draws from its stream.
func draws(r *rng.Rand) [3]uint64 { return [3]uint64{r.Uint64(), r.Uint64(), r.Uint64()} }

// runPool runs body over n streams split from seed on a pool with the
// given worker count and batch size (0 keeps the derived batch).
func runPool(t *testing.T, n, workers, batch int, body func(w, i int, r *rng.Rand) error, onPanic func(w int)) (int, error) {
	t.Helper()
	p := NewPool(SplitStreams(1, n), workers)
	if batch > 0 {
		p.batch = batch
	}
	return p.Run(context.Background(), nil, body, onPanic)
}

// Which worker claims which batch is a scheduling detail: the outputs
// are identical for every worker count and batch size.
func TestPoolWorkerBatchInvariant(t *testing.T) {
	const n = 23
	var want [][3]uint64
	for _, workers := range []int{1, 3, 7} {
		for _, batch := range []int{1, 2, n} {
			out := make([][3]uint64, n)
			if _, err := runPool(t, n, workers, batch, func(_, i int, r *rng.Rand) error {
				out[i] = draws(r)
				return nil
			}, nil); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = out
			} else if !reflect.DeepEqual(out, want) {
				t.Fatalf("workers=%d batch=%d: outputs diverged", workers, batch)
			}
		}
	}
}

// A subset run calls body once for each listed replication, each on a
// pristine copy of its own stream, and for no other: its outputs are
// the full run's at those indices, for every worker count.
func TestPoolRunsSubset(t *testing.T) {
	const n = 23
	full := make([][3]uint64, n)
	if _, err := runPool(t, n, 1, 0, func(_, i int, r *rng.Rand) error {
		full[i] = draws(r)
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	subset := []int{0, 4, 5, 11, 22}
	for _, workers := range []int{1, 3, 7} {
		p := NewPool(SplitStreams(1, n), workers)
		out := make([][3]uint64, n)
		var calls atomic.Int64
		if _, err := p.Run(context.Background(), subset, func(w, i int, r *rng.Rand) error {
			if w >= p.Workers() {
				return fmt.Errorf("worker %d of %d", w, p.Workers())
			}
			calls.Add(1)
			out[i] = draws(r)
			return nil
		}, nil); err != nil {
			t.Fatal(err)
		}
		if c := calls.Load(); c != int64(len(subset)) {
			t.Fatalf("workers=%d: %d body calls, want %d", workers, c, len(subset))
		}
		for i := range out {
			want := [3]uint64{}
			if slices.Contains(subset, i) {
				want = full[i]
			}
			if out[i] != want {
				t.Fatalf("workers=%d: replication %d = %v, want %v", workers, i, out[i], want)
			}
		}
	}
}

// A cancelled context stops further claims: the in-flight replication
// drains, nothing after it runs, and Run reports the context's error.
func TestPoolCancelStopsClaims(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := NewPool(SplitStreams(1, 10), 1)
	p.batch = 1
	ran := 0
	_, err := p.Run(ctx, nil, func(_, i int, _ *rng.Rand) error {
		ran++
		if i == 3 {
			cancel()
		}
		return nil
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 4 {
		t.Fatalf("ran %d replications, want 4 (claims must stop after the cancel)", ran)
	}
}

// A replication that panics once is retried from a pristine copy of its
// stream — the draws the failed attempt consumed do not leak into the
// retry — so the result is the clean one.
func TestPoolTransientPanicRetriesPristineStream(t *testing.T) {
	const n = 9
	clean := make([][3]uint64, n)
	if _, err := runPool(t, n, 3, 0, func(_, i int, r *rng.Rand) error {
		clean[i] = draws(r)
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	var fired atomic.Bool
	got := make([][3]uint64, n)
	retries, err := runPool(t, n, 3, 0, func(_, i int, r *rng.Rand) error {
		got[i] = draws(r)
		if i == 4 && fired.CompareAndSwap(false, true) {
			panic("transient fault")
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if retries != 1 {
		t.Fatalf("retries = %d, want 1", retries)
	}
	if !reflect.DeepEqual(got, clean) {
		t.Fatal("retried replication did not restart from its pristine stream")
	}
}

// A replication that panics on every attempt fails the run with a
// *PanicError naming the lowest failing replication, whatever the
// layout; every replication claimed before it still runs to the end.
func TestPoolPersistentPanicTypedError(t *testing.T) {
	for _, workers := range []int{1, 3, 7} {
		var attempts5 atomic.Int64
		retries, err := runPool(t, 12, workers, 1, func(_, i int, _ *rng.Rand) error {
			switch i {
			case 5:
				attempts5.Add(1)
				panic("rep 5 broken")
			case 9:
				panic("rep 9 broken")
			}
			return nil
		}, nil)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Rep != 5 || pe.Attempts != maxAttempts || pe.Cause != "rep 5 broken" {
			t.Fatalf("workers=%d: got %+v, want rep 5 after %d attempts", workers, pe, maxAttempts)
		}
		if pe.Worker < 0 || pe.Worker >= workers {
			t.Fatalf("workers=%d: worker %d out of range", workers, pe.Worker)
		}
		if attempts5.Load() != maxAttempts || retries < maxAttempts-1 {
			t.Fatalf("workers=%d: rep 5 ran %d times with %d retries", workers, attempts5.Load(), retries)
		}
	}
}

// onPanic names the worker whose replication panicked, and runs before
// that worker touches another replication — the window in which a
// caller discards the state the panic may have corrupted.
func TestPoolReportsPanickingWorker(t *testing.T) {
	const workers = 3
	dirty := make([]bool, workers)
	ranOn := make([]int, 12)
	var told []int
	_, err := runPool(t, 12, workers, 0, func(w, i int, _ *rng.Rand) error {
		if dirty[w] {
			t.Errorf("worker %d ran replication %d on state a panic left behind", w, i)
		}
		ranOn[i] = w
		if i == 7 {
			dirty[w] = true
			panic("corrupting fault")
		}
		return nil
	}, func(w int) {
		dirty[w] = false
		told = append(told, w) // only the panicking worker calls this
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if len(told) != maxAttempts {
		t.Fatalf("onPanic called %d times, want once per attempt (%d)", len(told), maxAttempts)
	}
	for _, w := range told {
		if w != ranOn[7] || w != pe.Worker {
			t.Fatalf("onPanic told worker %d, replication 7 ran on worker %d", w, ranOn[7])
		}
	}
}

// Replicate returns a persistent replication panic as the *PanicError
// of that replication, in the caller's goroutine, instead of crashing
// from a worker.
func TestReplicateReturnsPanicError(t *testing.T) {
	out, err := Replicate(SplitStreams(1, 4), 2, func(rep int, _ *rng.Rand) (int, error) {
		if rep == 2 {
			panic("broken body")
		}
		return rep, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Rep != 2 || out != nil {
		t.Fatalf("Replicate = %v, %v; want no results and the *PanicError of replication 2", out, err)
	}
}

// Replicate returns the error of the lowest failing replication for
// every worker count, and no results.
func TestReplicateReturnsLowestError(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		out, err := Replicate(SplitStreams(1, 40), workers, func(rep int, _ *rng.Rand) (int, error) {
			if rep == 11 || rep == 29 {
				return 0, fmt.Errorf("rep %d failed", rep)
			}
			return rep, nil
		})
		if err == nil || err.Error() != "rep 11 failed" || out != nil {
			t.Fatalf("workers %d: Replicate = %v, %v; want no results and rep 11's error", workers, out, err)
		}
	}
}
