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
// and never chase an Event, and there is no interface dispatch. Cancelled
// events stay in the heap, inert, until they reach the top.
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

// Payload is the small typed argument of a payload callback: a node (or
// other small integer) identifier plus one float parameter. Scheduling a
// shared method value with a Payload instead of a fresh closure removes
// the per-event closure allocation (and its captured variables) that
// dominated campaign allocation profiles.
type Payload struct {
	Node int32
	P    float64
}

// Event is one arena slot holding a scheduled callback. A fired or
// cancelled event is inert until Reset recycles its slot for the next
// epoch. Callers hold Handles, never *Events: the epoch tag is what lets
// Reset reuse slots while handles issued before the Reset stay inert.
type Event struct {
	time      float64
	epoch     uint64
	fn        func()
	pfn       func(Payload) // payload callback (fn and pfn are exclusive)
	parg      Payload
	cancelled bool
}

// cancel marks the slot inert. The callback is released immediately so a
// cancelled event pinned by the allocation arena does not keep its
// closure alive.
func (e *Event) cancel() {
	e.cancelled = true
	e.fn = nil
	e.pfn = nil
}

// Handle refers to one scheduled event; Schedule and friends return it
// and Cancel consumes it. Handles are small values, cheap to copy and
// store. The zero Handle is inert. A handle issued before the last
// Sim.Reset is stale — its slot may since have been recycled for a
// different event — and every method treats it as referring to a dead
// event, so forgotten handles from past replications cannot corrupt the
// current one.
type Handle struct {
	e     *Event
	epoch uint64
}

// live reports whether the handle still refers to the event it was
// issued for (the slot has not been recycled by a Reset).
func (h Handle) live() bool { return h.e != nil && h.e.epoch == h.epoch }

// Cancel removes the event from the pending set. Cancelling an event
// that already fired, was already cancelled, or belongs to an epoch
// ended by Reset is a no-op.
func (h Handle) Cancel() {
	if h.live() {
		h.e.cancel()
	}
}

// Cancelled reports whether the event can no longer fire as scheduled:
// explicitly cancelled, or stale (issued before the last Reset). Fired
// events report false, matching the pre-epoch semantics.
func (h Handle) Cancelled() bool {
	if !h.live() {
		return true
	}
	return h.e.cancelled
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
// seq is unique within an epoch, so the order is strict and total and
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

// pop removes and returns the earliest entry's event. The heap must be
// non-empty.
//
//diversify:hotpath every fired or discarded event passes through here; must not allocate
func (h *eventHeap) pop() *Event {
	s := *h
	top := s[0].e
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
	// epoch counts Resets; handles record the epoch they were issued in
	// so handles from pre-Reset epochs stay inert when slots recycle.
	epoch uint64
	arena eventArena
}

// eventArenaSize is the Event allocation block; campaigns fire thousands
// of events, so batching removes ~all per-event allocations without
// holding meaningfully more memory for short simulations.
const eventArenaSize = 128

// eventArena batches Event allocations in fixed-size blocks. Blocks are
// never reallocated (pointers into them stay valid for the Sim's
// lifetime); Reset rewinds the cursor so the next epoch hands the same
// slots out again. Within one epoch every slot is handed out at most
// once, preserving handle semantics (a fired or cancelled event stays
// inert until the epoch ends). A steady-state Reset+run cycle therefore
// allocates nothing: growth happens only when an epoch schedules more
// events than any epoch before it.
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

// rewind restarts the hand-out sequence at the first slot.
func (a *eventArena) rewind() { a.block, a.slot = 0, 0 }

// newEvent hands out the next arena slot.
//
//diversify:hotpath per-event allocation would dominate the Monte-Carlo profile
func (s *Sim) newEvent() *Event {
	return s.arena.next()
}

// NewSim returns a simulator with the clock at zero.
func NewSim() *Sim { return &Sim{} }

// Reset returns the simulator to its initial state — clock at zero, no
// pending events — so it can be reused for another run without
// reallocating. The epoch counter advances, so Handles issued before the
// Reset become inert; the pending heap's backing array and the
// allocation arena (whose slots are now recycled) are retained, making a
// steady-state Reset+run cycle free of des allocations.
func (s *Sim) Reset() {
	for i := range s.pending {
		s.pending[i].e.fn = nil
		s.pending[i].e.pfn = nil
		s.pending[i] = queued{}
	}
	s.pending = s.pending[:0]
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.stopped = false
	s.epoch++
	s.arena.rewind()
}

// Now returns the current virtual time.
func (s *Sim) Now() float64 { return s.now }

// FiredEvents returns how many events have executed so far.
func (s *Sim) FiredEvents() uint64 { return s.fired }

// Schedule enqueues fn to run after delay units of virtual time and
// returns the event handle (usable to Cancel). It panics on negative or
// NaN delays — a scheduling bug, not a runtime condition.
func (s *Sim) Schedule(delay float64, fn func()) Handle {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: invalid delay %v", delay))
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt enqueues fn to run at absolute virtual time t (>= Now).
func (s *Sim) ScheduleAt(t float64, fn func()) Handle {
	if t < s.now || math.IsNaN(t) {
		panic(fmt.Sprintf("des: schedule at %v before now %v", t, s.now))
	}
	e := s.newEvent()
	*e = Event{time: t, epoch: s.epoch, fn: fn}
	s.pending.push(queued{time: t, seq: s.seq, e: e})
	s.seq++
	return Handle{e: e, epoch: s.epoch}
}

// SchedulePayload enqueues fn(arg) to run after delay units of virtual
// time. fn is typically a long-lived method value shared across many
// events and arg a small identifier, so — unlike Schedule with a fresh
// closure — the call captures nothing and allocates nothing beyond the
// arena slot.
func (s *Sim) SchedulePayload(delay float64, fn func(Payload), arg Payload) Handle {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: invalid delay %v", delay))
	}
	t := s.now + delay
	e := s.newEvent()
	*e = Event{time: t, epoch: s.epoch, pfn: fn, parg: arg}
	s.pending.push(queued{time: t, seq: s.seq, e: e})
	s.seq++
	return Handle{e: e, epoch: s.epoch}
}

// Stop halts the current Run after the in-flight event returns.
func (s *Sim) Stop() { s.stopped = true }

// Step fires the single earliest pending event. It returns false when no
// events remain.
func (s *Sim) Step() bool {
	for len(s.pending) > 0 {
		e := s.pending.pop()
		if e.cancelled {
			continue
		}
		s.now = e.time
		s.fired++
		fn, pfn := e.fn, e.pfn
		e.fn, e.pfn = nil, nil // release the callback; fired events are inert
		if pfn != nil {
			pfn(e.parg)
		} else {
			fn()
		}
		return true
	}
	return false
}

// Run executes events in order until the clock would pass horizon, the
// event queue empties, or Stop is called. The clock is left at
// min(horizon, time of last event). It returns ErrStopped if halted by
// Stop, nil otherwise.
func (s *Sim) Run(horizon float64) error {
	if math.IsNaN(horizon) {
		return fmt.Errorf("des: NaN horizon: %w", ErrStopped)
	}
	s.stopped = false
	for len(s.pending) > 0 {
		if s.stopped {
			return ErrStopped
		}
		next := s.peek()
		if next == nil {
			break
		}
		if next.time > horizon {
			s.now = horizon
			return nil
		}
		s.Step()
	}
	if s.now < horizon {
		s.now = horizon
	}
	return nil
}

// RunUntil executes events until pred() returns true (checked after every
// event), the horizon is reached, or the queue empties. It reports whether
// pred became true.
func (s *Sim) RunUntil(horizon float64, pred func() bool) (bool, error) {
	if pred() {
		return true, nil
	}
	s.stopped = false
	for len(s.pending) > 0 {
		if s.stopped {
			return false, ErrStopped
		}
		next := s.peek()
		if next == nil {
			break
		}
		if next.time > horizon {
			s.now = horizon
			return false, nil
		}
		s.Step()
		if pred() {
			return true, nil
		}
	}
	if s.now < horizon {
		s.now = horizon
	}
	return false, nil
}

// peek returns the earliest non-cancelled event without firing it,
// discarding cancelled ones as it goes.
func (s *Sim) peek() *Event {
	for len(s.pending) > 0 {
		e := s.pending[0].e
		if !e.cancelled {
			return e
		}
		s.pending.pop()
	}
	return nil
}

// Every schedules fn to run now+period, then every period thereafter, until
// the returned stop function is called. fn receives the firing time.
func (s *Sim) Every(period float64, fn func(t float64)) (stop func()) {
	if period <= 0 || math.IsNaN(period) {
		panic(fmt.Sprintf("des: invalid period %v", period))
	}
	stopped := false
	var tick func()
	var ev Handle
	tick = func() {
		if stopped {
			return
		}
		fn(s.now)
		if !stopped {
			ev = s.Schedule(period, tick)
		}
	}
	ev = s.Schedule(period, tick)
	return func() {
		stopped = true
		ev.Cancel()
	}
}
