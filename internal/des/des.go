// Package des implements the discrete-event simulation core that every
// time-driven model in the framework (SAN execution, SCADA testbed, worm
// propagation) runs on.
//
// A Sim owns a virtual clock, a pending-event heap and an event arena.
// Events scheduled at the same instant fire in scheduling order (FIFO
// tie-breaking via a monotonically increasing sequence number), which
// keeps runs exactly reproducible for a given seed.
//
// Layout: each scheduled callback lives in an arena slot (Event), handed
// out in fixed-size blocks and recycled by Reset. The pending heap is a
// typed binary heap of {time, seq, *Event} values: the ordering key is
// copied next to the slot pointer, so push and pop compare plain values
// and never chase an Event, and there is no interface dispatch. There is
// one kind of event, a callback with a Payload, and no cancellation:
// every scheduled event fires once its time comes.
//
// The package also provides Pool, the framework's one Monte-Carlo
// fan-out: it runs each replication on its own pre-derived RNG stream,
// making results independent of the number of worker goroutines, and
// Replicate, its generic front end.
package des

import (
	"errors"
	"fmt"
	"math"
)

// ErrStopped is returned by Run when the simulation was halted by Stop.
var ErrStopped = errors.New("des: simulation stopped")

// ErrNaNHorizon is returned by Run and RunUntil for a NaN horizon, which
// no event time compares past: the run would otherwise go on until the
// queue empties.
var ErrNaNHorizon = errors.New("des: NaN horizon")

// Payload is the argument of an event callback: a node (or other small
// integer) identifier plus one float parameter. Scheduling a shared
// method value with a Payload instead of a fresh closure removes the
// per-event closure allocation (and its captured variables) that
// dominated campaign allocation profiles.
type Payload struct {
	Node int32
	P    float64
}

// Event is one arena slot holding a scheduled callback and its argument.
// Events cannot be cancelled: a model that may invalidate an in-flight
// event stamps its payload with a generation and lets the callback
// ignore a stale stamp.
type Event struct {
	fn  func(Payload)
	arg Payload
}

// queued is one pending-heap entry. The event's ordering key travels
// with its slot pointer, so sifting compares plain values and never
// dereferences an Event.
type queued struct {
	time float64
	seq  uint64
	e    *Event
}

// before is the fire order: earlier time first, then scheduling order.
// seq is unique between Resets, so the order is strict and total and
// every correct heap pops events in the same sequence.
func (q queued) before(o queued) bool {
	if q.time != o.time {
		return q.time < o.time
	}
	return q.seq < o.seq
}

// eventHeap is a binary min-heap of queued entries ordered by before. A
// 4-ary layout was measured on campaign replications and did not win.
type eventHeap []queued

// push inserts q and sifts it up.
//
//diversify:hotpath every scheduled event passes through here; only backing-array growth may allocate
func (h *eventHeap) push(q queued) {
	*h = append(*h, q)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = q
}

// pop removes and returns the earliest entry. The heap must be
// non-empty.
//
//diversify:hotpath every fired event passes through here; must not allocate
func (h *eventHeap) pop() queued {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = queued{} // drop the slot pointer
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s[r].before(s[child]) {
			child = r
		}
		if !s[child].before(last) {
			break
		}
		s[i] = s[child]
		i = child
	}
	s[i] = last
	return top
}

// Sim is a sequential discrete-event simulator. The zero value is ready to
// use; it is not safe for concurrent use.
type Sim struct {
	now     float64
	seq     uint64
	pending eventHeap
	stopped bool
	fired   uint64
	arena   eventArena
}

// eventArenaSize is the Event allocation block; campaigns fire thousands
// of events, so batching removes ~all per-event allocations without
// holding meaningfully more memory for short simulations.
const eventArenaSize = 128

// eventArena batches Event allocations in fixed-size blocks. Blocks are
// never reallocated (pointers into them stay valid for the Sim's
// lifetime); Reset rewinds the cursor so the next run hands the same
// slots out again. A steady-state Reset+run cycle therefore allocates
// nothing: growth happens only when a run schedules more events than any
// run before it.
type eventArena struct {
	blocks      [][]Event
	block, slot int
}

// next hands out the next slot, growing by one block when the cursor
// runs past every existing block.
//
//diversify:hotpath steady-state Reset+run cycles must not allocate; only block growth may
func (a *eventArena) next() *Event {
	if a.block == len(a.blocks) {
		a.blocks = append(a.blocks, make([]Event, eventArenaSize))
	}
	e := &a.blocks[a.block][a.slot]
	a.slot++
	if a.slot == eventArenaSize {
		a.block++
		a.slot = 0
	}
	return e
}

// NewSim returns a simulator with the clock at zero.
func NewSim() *Sim { return &Sim{} }

// Reset returns the simulator to its initial state — clock at zero, no
// pending events — so it can be reused for another run without
// reallocating. The pending heap's backing array and the allocation
// arena (whose slots are now recycled) are retained, making a
// steady-state Reset+run cycle free of des allocations.
func (s *Sim) Reset() {
	for i := range s.pending {
		s.pending[i].e.fn = nil
		s.pending[i] = queued{}
	}
	s.pending = s.pending[:0]
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.stopped = false
	s.arena.block, s.arena.slot = 0, 0
}

// Now returns the current virtual time.
func (s *Sim) Now() float64 { return s.now }

// FiredEvents returns how many events have executed so far.
func (s *Sim) FiredEvents() uint64 { return s.fired }

// SchedulePayload enqueues fn(arg) to run after delay units of virtual
// time. fn is typically a long-lived method value shared across many
// events and arg a small identifier, so the call captures nothing and
// allocates nothing beyond the arena slot. It panics on negative or NaN
// delays — a scheduling bug, not a runtime condition.
func (s *Sim) SchedulePayload(delay float64, fn func(Payload), arg Payload) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: invalid delay %v", delay))
	}
	e := s.arena.next()
	*e = Event{fn: fn, arg: arg}
	s.pending.push(queued{time: s.now + delay, seq: s.seq, e: e})
	s.seq++
}

// Stop halts the current Run after the in-flight event returns.
func (s *Sim) Stop() { s.stopped = true }

// Step fires the single earliest pending event. It returns false when no
// events remain.
func (s *Sim) Step() bool {
	if len(s.pending) == 0 {
		return false
	}
	q := s.pending.pop()
	s.now = q.time
	s.fired++
	fn := q.e.fn
	q.e.fn = nil // release the callback until Reset recycles the slot
	fn(q.e.arg)
	return true
}

// Run executes events in order until the clock would pass horizon, the
// event queue empties, or Stop is called. The clock is left at
// min(horizon, time of last event). It returns ErrStopped if halted by
// Stop, ErrNaNHorizon for a NaN horizon, nil otherwise.
func (s *Sim) Run(horizon float64) error {
	_, err := s.RunUntil(horizon, nil)
	return err
}

// RunUntil executes events until pred() returns true (checked after every
// event), the horizon is reached, or the queue empties. It reports whether
// pred became true; a nil pred never does. A NaN horizon runs nothing and
// returns ErrNaNHorizon.
func (s *Sim) RunUntil(horizon float64, pred func() bool) (bool, error) {
	if math.IsNaN(horizon) {
		return false, ErrNaNHorizon
	}
	if pred != nil && pred() {
		return true, nil
	}
	s.stopped = false
	for len(s.pending) > 0 {
		if s.stopped {
			return false, ErrStopped
		}
		if s.pending[0].time > horizon {
			s.now = horizon
			return false, nil
		}
		s.Step()
		if pred != nil && pred() {
			return true, nil
		}
	}
	if s.now < horizon {
		s.now = horizon
	}
	return false, nil
}

// Every calls fn(now) at now+period and every period thereafter, for as
// long as the simulation runs.
func (s *Sim) Every(period float64, fn func(t float64)) {
	if period <= 0 || math.IsNaN(period) {
		panic(fmt.Sprintf("des: invalid period %v", period))
	}
	var tick func(Payload)
	tick = func(Payload) {
		fn(s.now)
		s.SchedulePayload(period, tick, Payload{})
	}
	s.SchedulePayload(period, tick, Payload{})
}
