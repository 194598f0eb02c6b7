package des

import (
	"container/heap"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"diversify/internal/rng"
)

func TestEventOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if s.Now() != 10 {
		t.Fatalf("clock = %v, want horizon 10", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := NewSim()
	var order []string
	s.Schedule(1, func() { order = append(order, "a") })
	s.Schedule(1, func() { order = append(order, "b") })
	s.Schedule(1, func() { order = append(order, "c") })
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("simultaneous events not FIFO: %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim()
	var times []float64
	s.Schedule(1, func() {
		times = append(times, s.Now())
		s.Schedule(1, func() { times = append(times, s.Now()) })
	})
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("nested schedule times: %v", times)
	}
}

func TestCancel(t *testing.T) {
	s := NewSim()
	fired := false
	ev := s.Schedule(1, func() { fired = true })
	ev.Cancel()
	if !ev.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.FiredEvents() != 0 {
		t.Fatalf("FiredEvents = %d, want 0", s.FiredEvents())
	}
}

func TestHorizonStopsBeforeEvent(t *testing.T) {
	s := NewSim()
	fired := false
	s.Schedule(10, func() { fired = true })
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v, want 5", s.Now())
	}
	// Resuming past the event must fire it at its original time.
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event did not fire after extending horizon")
	}
}

func TestStop(t *testing.T) {
	s := NewSim()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(float64(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	err := s.Run(100)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestRunUntil(t *testing.T) {
	s := NewSim()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(float64(i), func() { count++ })
	}
	ok, err := s.RunUntil(100, func() bool { return count >= 4 })
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if count != 4 || s.Now() != 4 {
		t.Fatalf("count=%d now=%v", count, s.Now())
	}
	// Predicate never satisfied: runs to horizon.
	ok, err = s.RunUntil(6, func() bool { return false })
	if err != nil || ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if s.Now() != 6 {
		t.Fatalf("now=%v, want 6", s.Now())
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	s := NewSim()
	s.Schedule(5, func() {})
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.ScheduleAt(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	NewSim().Schedule(-1, func() {})
}

func TestEvery(t *testing.T) {
	s := NewSim()
	var ticks []float64
	stop := s.Every(2, func(now float64) {
		ticks = append(ticks, now)
		if len(ticks) == 3 {
			// stop is captured below; cancel via closure variable.
		}
	})
	s.Schedule(7, func() { stop() })
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 6}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestEveryStopInsideCallback(t *testing.T) {
	s := NewSim()
	n := 0
	var stop func()
	stop = s.Every(1, func(float64) {
		n++
		if n == 2 {
			stop()
		}
	})
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
}

func TestManyEventsThroughput(t *testing.T) {
	s := NewSim()
	r := rng.New(1)
	const n = 20000
	for i := 0; i < n; i++ {
		s.Schedule(r.Float64()*1000, func() {})
	}
	if err := s.Run(2000); err != nil {
		t.Fatal(err)
	}
	if s.FiredEvents() != n {
		t.Fatalf("fired %d of %d", s.FiredEvents(), n)
	}
}

func TestReplicateDeterministicAcrossWorkers(t *testing.T) {
	body := func(rep int, r *rng.Rand) float64 {
		sum := 0.0
		for i := 0; i < 100; i++ {
			sum += r.Float64()
		}
		return sum
	}
	one := Replicate(50, 1, 42, body)
	four := Replicate(50, 4, 42, body)
	sixteen := Replicate(50, 16, 42, body)
	for i := range one {
		if one[i] != four[i] || one[i] != sixteen[i] {
			t.Fatalf("replication %d differs across worker counts: %v %v %v",
				i, one[i], four[i], sixteen[i])
		}
	}
}

func TestReplicateStreamsIndependent(t *testing.T) {
	out := Replicate(20, 4, 7, func(rep int, r *rng.Rand) float64 { return r.Float64() })
	seen := map[float64]bool{}
	for _, v := range out {
		if seen[v] {
			t.Fatalf("duplicate first draw %v across replications", v)
		}
		seen[v] = true
	}
}

func TestReplicateZero(t *testing.T) {
	if out := Replicate(0, 4, 1, func(int, *rng.Rand) int { return 1 }); out != nil {
		t.Fatalf("Replicate(0) = %v, want nil", out)
	}
}

// Property: for random schedules, events always fire in nondecreasing time
// order and the clock never goes backwards.
func TestQuickMonotoneClock(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := rng.New(seed)
		s := NewSim()
		last := math.Inf(-1)
		ok := true
		for i := 0; i < n; i++ {
			s.Schedule(r.Float64()*100, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		if err := s.Run(1000); err != nil {
			return false
		}
		return ok && s.FiredEvents() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSim()
		for j := 0; j < 1000; j++ {
			s.Schedule(r.Float64()*100, func() {})
		}
		if err := s.Run(200); err != nil {
			b.Fatal(err)
		}
	}
}

// SchedulePayload must interleave with closure events in FIFO-per-time
// order and deliver the scheduled argument.
func TestSchedulePayload(t *testing.T) {
	s := NewSim()
	var order []int32
	record := func(p Payload) { order = append(order, p.Node) }
	s.SchedulePayload(2, record, Payload{Node: 2, P: 0.5})
	s.Schedule(1, func() { order = append(order, 1) })
	s.SchedulePayload(2, record, Payload{Node: 3})
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// A cancelled payload event must not fire and must release its callback.
func TestSchedulePayloadCancel(t *testing.T) {
	s := NewSim()
	fired := false
	ev := s.SchedulePayload(1, func(Payload) { fired = true }, Payload{})
	ev.Cancel()
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled payload event fired")
	}
}

// Reset must make a reused simulator behave exactly like a fresh one.
func TestSimReset(t *testing.T) {
	run := func(s *Sim) []float64 {
		var times []float64
		s.Schedule(1, func() {
			times = append(times, s.Now())
			s.Schedule(2, func() { times = append(times, s.Now()) })
		})
		s.SchedulePayload(5, func(Payload) { times = append(times, s.Now()) }, Payload{})
		s.Schedule(100, func() { times = append(times, s.Now()) }) // beyond horizon
		if err := s.Run(10); err != nil {
			t.Fatal(err)
		}
		return times
	}
	s := NewSim()
	first := run(s)
	s.Reset()
	if s.Now() != 0 || len(s.pending) != 0 || s.FiredEvents() != 0 {
		t.Fatalf("Reset left state: now=%v pending=%d fired=%d", s.Now(), len(s.pending), s.FiredEvents())
	}
	second := run(s)
	fresh := run(NewSim())
	if len(first) != len(fresh) || len(second) != len(fresh) {
		t.Fatalf("lengths differ: first=%v second=%v fresh=%v", first, second, fresh)
	}
	for i := range fresh {
		if first[i] != fresh[i] || second[i] != fresh[i] {
			t.Fatalf("run traces differ: first=%v second=%v fresh=%v", first, second, fresh)
		}
	}
}

// A handle issued before a Reset must stay inert: its slot is recycled
// for the next epoch, so cancelling through the stale handle must not
// touch the slot's new occupant.
func TestStaleHandleIsInert(t *testing.T) {
	s := NewSim()
	stale := s.Schedule(1, func() {})
	s.Reset()
	fired := false
	fresh := s.Schedule(1, func() { fired = true })
	if stale.Cancelled() != true {
		t.Fatal("pre-Reset handle should report Cancelled (inert)")
	}
	if stale.Time() != 0 {
		t.Fatalf("stale handle Time = %v, want 0", stale.Time())
	}
	stale.Cancel() // must not cancel the recycled slot's new event
	if fresh.Cancelled() {
		t.Fatal("cancelling a stale handle cancelled the new epoch's event")
	}
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("new epoch's event did not fire")
	}
	// The zero Handle is inert too.
	var zero Handle
	zero.Cancel()
	if !zero.Cancelled() {
		t.Fatal("zero Handle should report Cancelled")
	}
}

// Handles remain first-class within their own epoch even after slots
// from earlier epochs were recycled.
func TestHandleCancelWithinEpochAfterReset(t *testing.T) {
	s := NewSim()
	s.Schedule(1, func() {})
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	fired := false
	h := s.Schedule(1, func() { fired = true })
	h.Cancel()
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !h.Cancelled() {
		t.Fatal("handle should report Cancelled")
	}
}

// Steady-state Reset+run cycles must recycle every arena slot: after a
// warm-up epoch sized like the steady state, further epochs allocate
// nothing in the des layer.
func TestResetRunCycleZeroAllocs(t *testing.T) {
	s := NewSim()
	var sink int
	count := func(Payload) { sink++ }
	epoch := func() {
		s.Reset()
		// Span several arena blocks to exercise the block cursor.
		for i := 0; i < 3*eventArenaSize; i++ {
			s.SchedulePayload(float64(i%7), count, Payload{Node: int32(i)})
		}
		if err := s.Run(100); err != nil {
			t.Fatal(err)
		}
	}
	epoch() // warm-up: grows the arena and the pending heap
	allocs := testing.AllocsPerRun(10, epoch)
	if allocs != 0 {
		t.Fatalf("steady-state Reset+run cycle allocated %.1f times per epoch, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("events did not fire")
	}
}

// refEvent, refHeap and refSim are the pre-typed-heap scheduler kept as
// an oracle: container/heap over event pointers ordered by (time, seq).
type refEvent struct {
	time      float64
	seq       uint64
	id        int
	cancelled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

type refSim struct {
	now float64
	seq uint64
	h   refHeap
}

func (r *refSim) schedule(delay float64, id int) *refEvent {
	e := &refEvent{time: r.now + delay, seq: r.seq, id: id}
	r.seq++
	heap.Push(&r.h, e)
	return e
}

// step fires the earliest live event and returns its id (-1 when empty).
func (r *refSim) step() int {
	for r.h.Len() > 0 {
		e := heap.Pop(&r.h).(*refEvent)
		if e.cancelled {
			continue
		}
		r.now = e.time
		return e.id
	}
	return -1
}

// The typed value heap must fire exactly the events the container/heap
// reference fires, in the same order, under random interleavings of
// schedules (drawn from a handful of delays, so equal times are the
// norm), cancellations and steps — including across Resets.
func TestTypedHeapMatchesContainerHeapOracle(t *testing.T) {
	delays := []float64{0, 0, 1, 1, 2, 0.5, 3}
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		s := NewSim()
		for epoch := 0; epoch < 3; epoch++ {
			s.Reset()
			ref := &refSim{}
			fired := -1
			var handles []Handle
			var refs []*refEvent
			for op := 0; op < 600; op++ {
				switch k := r.Intn(10); {
				case k < 5:
					id := len(handles)
					d := delays[r.Intn(len(delays))]
					handles = append(handles, s.Schedule(d, func() { fired = id }))
					refs = append(refs, ref.schedule(d, id))
				case k < 7 && len(handles) > 0:
					i := r.Intn(len(handles))
					handles[i].Cancel()
					refs[i].cancelled = true
				default:
					fired = -1
					s.Step()
					if want := ref.step(); fired != want {
						t.Fatalf("seed %d epoch %d op %d: fired %d, oracle %d", seed, epoch, op, fired, want)
					}
					if s.Now() != ref.now {
						t.Fatalf("seed %d epoch %d op %d: clock %v, oracle %v", seed, epoch, op, s.Now(), ref.now)
					}
				}
			}
			for want := ref.step(); want >= 0; want = ref.step() {
				fired = -1
				s.Step()
				if fired != want {
					t.Fatalf("seed %d epoch %d drain: fired %d, oracle %d", seed, epoch, fired, want)
				}
			}
			if s.Step() {
				t.Fatalf("seed %d epoch %d: typed heap fired past the oracle", seed, epoch)
			}
		}
	}
}

// Time returns the virtual time the event is (or was) scheduled for; a
// stale or zero handle returns 0.
func (h Handle) Time() float64 {
	if !h.live() {
		return 0
	}
	return h.e.time
}
