package trace

import "diversify/internal/rng"

// defaultLimit bounds one replication's trace when the caller does not:
// enough for every event of a grid-scale replication while keeping a
// pathological horizon from holding the process hostage.
const defaultLimit = 8192

// Capture collects the causal traces of one replicated evaluation: it
// fixes up front which replications are traced, lends each worker one
// reusable Tracer and keeps one slot per replication, so the traces come
// back in replication order whichever worker ran them. A nil *Capture
// is capture switched off.
type Capture struct {
	sampled []bool
	tracers []*Tracer
	slots   []Trace
	limit   int
}

// NewCapture samples the replications whose streams Sampled selects at
// rate sample — decided from the streams' non-advancing digests, so the
// sampled set is a pure function of the streams and capture consumes no
// draw — for a pool of workers workers. Each trace keeps at most limit
// records (<= 0 selects 8192); a truncated trace reports the overflow
// in Trace.Dropped.
func NewCapture(streams []rng.Rand, sample float64, workers, limit int) *Capture {
	if limit <= 0 {
		limit = defaultLimit
	}
	c := &Capture{
		sampled: make([]bool, len(streams)),
		tracers: make([]*Tracer, workers),
		slots:   make([]Trace, len(streams)),
		limit:   limit,
	}
	for i := range streams {
		c.sampled[i] = Sampled(streams[i].Digest(), sample)
	}
	return c
}

// Tracer returns the reset tracer worker w attaches for replication i,
// or nil when i is not sampled or capture is off.
func (c *Capture) Tracer(w, i int) *Tracer {
	if c == nil || !c.sampled[i] {
		return nil
	}
	if c.tracers[w] == nil {
		c.tracers[w] = NewTracer(c.limit)
	}
	c.tracers[w].Reset()
	return c.tracers[w]
}

// Keep stores worker w's finished capture as replication i's trace; it
// does nothing when i is not sampled or capture is off.
func (c *Capture) Keep(w, i int) {
	if c == nil || !c.sampled[i] {
		return
	}
	tr := c.tracers[w]
	c.slots[i] = Trace{Rep: i, Dropped: tr.Dropped(), Records: tr.Snapshot()}
}

// Traces returns the sampled replications' traces in replication order.
func (c *Capture) Traces() []Trace {
	traces := make([]Trace, 0, len(c.slots))
	for i := range c.slots {
		if c.sampled[i] {
			traces = append(traces, c.slots[i])
		}
	}
	return traces
}
