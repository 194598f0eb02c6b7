package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// defaultTickInterval is the minimum gap between consecutive per-round
// ticker lines: fast cached searches complete thousands of rounds per
// second, and a terminal is not a place to put them all.
const defaultTickInterval = 250 * time.Millisecond

// Progress renders the event stream for humans, one line per event that
// matters, on the writer (stderr in the CLI). Two tiers:
//
//   - notices — quarantines and the end-of-run store summary — always
//     print; they are the bookkeeping the CLI used to write ad hoc, now
//     consistent and stdout-clean;
//   - the per-round ticker is opt-in (-progress) and rate-limited:
//     incumbent improvements always print, steady-state rounds at most
//     once per defaultTickInterval.
type Progress struct {
	w      io.Writer
	ticker bool
	// now is injectable for tests.
	now func() time.Time

	mu        sync.Mutex
	last      time.Time //diversify:guardedby mu
	best      float64   //diversify:guardedby mu
	haveBest  bool      //diversify:guardedby mu
	storePath string    //diversify:guardedby mu
}

// NewProgress returns a progress printer on w. With ticker false only
// the always-on notices print — the mode the CLI uses by default so
// store/quarantine bookkeeping stays visible without -progress.
func NewProgress(w io.Writer, ticker bool) *Progress {
	return &Progress{w: w, ticker: ticker, now: time.Now}
}

// Emit implements Sink.
func (p *Progress) Emit(e Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ev := e.(type) {
	case RunStarted:
		if p.ticker {
			fmt.Fprintf(p.w, "optimize: [%s] %s search: %d options, %d schedules, %d reps x %d workers, budget %g\n",
				ev.Strategy, ev.Objective, ev.Options, ev.Rotations, ev.Reps, ev.Workers, ev.Budget)
		}
	case RoundCompleted:
		improved := !p.haveBest || ev.Incumbent < p.best
		if improved {
			p.best, p.haveBest = ev.Incumbent, true
		}
		if !p.ticker {
			return
		}
		now := p.now()
		if !improved && now.Sub(p.last) < defaultTickInterval {
			return
		}
		p.last = now
		line := fmt.Sprintf("optimize: [%s] round %d best=%.6g value=%.6g cost=%.4g evals=%d hits=%d",
			ev.Strategy, ev.Round, ev.Incumbent, ev.Value, ev.Cost, ev.Evaluations, ev.CacheHits)
		if ev.FrontSize > 0 {
			line += fmt.Sprintf(" front=%d", ev.FrontSize)
		}
		fmt.Fprintf(p.w, "%s t=%s\n", line, ev.Elapsed.Round(time.Millisecond))
	case WorkerQuarantined:
		fmt.Fprintf(p.w, "optimize: quarantined replication %d after %d attempts (worker %d): %s\n",
			ev.Replication, ev.Attempts, ev.Worker, ev.Cause)
	case StoreWarmStart:
		p.storePath = ev.Path
		if p.ticker && ev.Evaluations > 0 {
			fmt.Fprintf(p.w, "optimize: evaluation store %s: %d prior measurements\n", ev.Path, ev.Evaluations)
		}
	case RunFinished:
		if p.storePath != "" {
			fmt.Fprintf(p.w, "optimize: evaluation store %s: %d hits, %d new measurements\n", p.storePath, ev.StoreHits, ev.StorePuts)
		}
		if ev.Quarantined > 0 {
			fmt.Fprintf(p.w, "optimize: %d candidate(s) quarantined, %d replication retries\n", ev.Quarantined, ev.Retries)
		}
		if p.ticker {
			state := "done"
			if ev.Degraded != "" {
				state = "interrupted"
			}
			fmt.Fprintf(p.w, "optimize: [%s] %s in %s: best=%.6g, %d evaluations, %d cache hits, %d replications simulated, %d replayed\n",
				ev.Strategy, state, ev.Elapsed.Round(time.Millisecond), ev.Best, ev.Evaluations, ev.CacheHits, ev.Simulated, ev.Replayed)
		}
	}
}
