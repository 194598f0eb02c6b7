package des

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"diversify/internal/rng"
)

// Panic-isolation bounds: a replication that panics is retried from a
// pristine copy of its stream after an escalating backoff (1 ms·2ᵏ);
// one that panics maxAttempts times in a row fails the run with a
// *PanicError.
const (
	maxAttempts  = 3
	retryBackoff = time.Millisecond
)

// batchFactor targets this many batch claims per worker: enough slack
// for load balancing across uneven replication times, few enough that
// claim synchronization is negligible.
const batchFactor = 4

// PanicError reports a replication that panicked on every attempt.
type PanicError struct {
	// Rep is the replication index, Worker the worker that ran its last
	// attempt and Attempts how many attempts panicked.
	Rep, Worker, Attempts int
	// Cause is the last recovered panic value.
	Cause any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("des: replication %d panicked %d times (worker %d): %v", e.Rep, e.Attempts, e.Worker, e.Cause)
}

// Pool is the one Monte-Carlo fan-out of the framework: it runs one
// body call per replication stream across a fixed set of workers (the
// calling goroutine is worker 0; each further worker is a goroutine).
// Workers claim contiguous index batches from a shared cursor, and
// replication i always starts from a pristine copy of stream i and
// writes only its own slot, so results are identical for every worker
// count and batch size.
type Pool struct {
	streams []rng.Rand
	workers int
	batch   int
}

// NewPool prepares a pool over the given per-replication streams with
// the requested worker count (<= 0 selects GOMAXPROCS; never more than
// one worker per replication).
func NewPool(streams []rng.Rand, workers int) *Pool {
	n := len(streams)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, n), 1)
	return &Pool{streams: streams, workers: workers, batch: max(n/(workers*batchFactor), 1)}
}

// Workers is the resolved worker count; body's w argument is below it.
func (p *Pool) Workers() int { return p.workers }

// Run calls body(w, i, r) once for every replication i in reps (nil
// selects every stream; a subset must hold distinct stream indices), on
// worker w, with r holding a fresh copy of stream i. Workers stop
// claiming batches once ctx is done or any replication has failed;
// in-flight replications drain. A panicking body is recovered:
// onPanic(w) (when non-nil) runs on the worker before it does anything
// else, so the caller can discard state the panic may have corrupted,
// and the replication is retried from its pristine stream up to
// maxAttempts times. Run reports how many attempts were retried and,
// after all workers have joined, ctx's error if it is done, otherwise
// the failure (body error or *PanicError) of the lowest failing
// replication.
func (p *Pool) Run(ctx context.Context, reps []int, body func(w, i int, r *rng.Rand) error, onPanic func(w int)) (retries int, err error) {
	n, batch := p.claims(reps)
	// ws[w] is worker w's outcome: its retried attempts and the
	// replication it failed on (err nil: none).
	type outcome struct {
		retries, rep int
		err          error
	}
	ws := make([]outcome, max(min(p.workers, n), 1))
	var stop atomic.Bool
	var cursor atomic.Int64
	work := func(w int) {
		r := new(rng.Rand)
		for !stop.Load() && ctx.Err() == nil {
			hi := int(cursor.Add(int64(batch)))
			lo := hi - batch
			if lo >= n {
				return
			}
			for j := lo; j < min(hi, n); j++ {
				i := j
				if reps != nil {
					i = reps[j]
				}
				if err := p.runRep(w, i, r, body, onPanic, &ws[w].retries); err != nil {
					ws[w].rep, ws[w].err = i, err
					stop.Store(true)
					return
				}
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(len(ws) - 1)
	for w := 1; w < len(ws); w++ {
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	// The calling goroutine is worker 0, so a one-worker Run starts no
	// goroutine at all.
	work(0)
	wg.Wait()
	first := outcome{rep: len(p.streams)}
	for _, o := range ws {
		retries += o.retries
		if o.err != nil && o.rep < first.rep {
			first = o
		}
	}
	if err := ctx.Err(); err != nil {
		return retries, err
	}
	return retries, first.err
}

// claims sizes a Run over reps: the replications it claims and the
// batch a worker claims at once. A subset is batched for its own size.
func (p *Pool) claims(reps []int) (n, batch int) {
	if reps == nil {
		return len(p.streams), p.batch
	}
	return len(reps), min(p.batch, max(len(reps)/(p.workers*batchFactor), 1))
}

// runRep runs replication i on worker w, retrying panics.
func (p *Pool) runRep(w, i int, r *rng.Rand, body func(w, i int, r *rng.Rand) error, onPanic func(w int), retries *int) error {
	for attempt := 1; ; attempt++ {
		*r = p.streams[i]
		cause, err := recovered(w, i, r, body)
		if cause == nil {
			return err
		}
		if onPanic != nil {
			onPanic(w)
		}
		if attempt == maxAttempts {
			return &PanicError{Rep: i, Worker: w, Attempts: attempt, Cause: cause}
		}
		*retries++
		time.Sleep(retryBackoff << (attempt - 1))
	}
}

// recovered calls body, turning a panic into its recovered value.
func recovered(w, i int, r *rng.Rand, body func(w, i int, r *rng.Rand) error) (cause any, err error) {
	defer func() { cause = recover() }()
	return nil, body(w, i, r)
}

// Replicate runs one replication of body per stream on a Pool with at
// most workers workers (workers <= 0 selects GOMAXPROCS). body keeps no
// per-worker state, so Replicate never runs more workers than
// GOMAXPROCS: more would add goroutines, not parallelism. Replication i
// starts from a pristine copy of streams[i], so the output slice is
// identical regardless of the worker count. Results are returned in
// replication order. If a replication fails — body returns an error, or
// panics on every attempt — Replicate returns no results and the error
// (or *PanicError) of the lowest failing replication.
func Replicate[T any](streams []rng.Rand, workers int, body func(rep int, r *rng.Rand) (T, error)) ([]T, error) {
	if len(streams) == 0 {
		return nil, nil
	}
	out := make([]T, len(streams))
	_, err := NewPool(streams, min(workers, runtime.GOMAXPROCS(0))).Run(context.Background(), nil, func(_, i int, r *rng.Rand) error {
		var err error
		out[i], err = body(i, r)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SplitStreams derives n replication streams by splitting them in order
// from a root seeded with seed — the derivation Replicate's callers,
// malware.Evaluate and core.Study share.
func SplitStreams(seed uint64, n int) []rng.Rand {
	root := rng.New(seed)
	streams := make([]rng.Rand, n)
	for i := range streams {
		streams[i] = *root.Split()
	}
	return streams
}
