package optimize

import "time"

// wallClock is the package's single wall-time source. Elapsed-time
// fields (Stats.Elapsed, telemetry step/batch durations) are
// observability-only: they never feed scoring, acceptance decisions or
// stored measurements, so one audited nondeterminism site covers them
// all. Tests freeze this variable to prove the rest of the runtime is
// clock-independent.
//
//diversify:det-pure observability-only elapsed times; never feeds scoring, acceptance or stored measurements, and tests freeze it to prove it
var wallClock = time.Now //diversify:allow-nondet sole wall-time source; feeds only observability fields, never scoring or stored measurements

// sinceWall is time.Since against the injectable clock.
func sinceWall(t time.Time) time.Duration { return wallClock().Sub(t) }
