package des

import (
	"container/heap"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"diversify/internal/rng"
)

// after schedules the closure fn after delay, as a payload event whose
// argument is unused.
func after(s *Sim, delay float64, fn func()) {
	s.SchedulePayload(delay, func(Payload) { fn() }, Payload{})
}

func TestEventOrdering(t *testing.T) {
	s := NewSim()
	var order []int32
	record := func(p Payload) { order = append(order, p.Node) }
	for _, n := range []int32{3, 1, 2} {
		s.SchedulePayload(float64(n), record, Payload{Node: n})
	}
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
	after(s, 1, func() { order = append(order, "a") })
	after(s, 1, func() { order = append(order, "b") })
	after(s, 1, func() { order = append(order, "c") })
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
	after(s, 1, func() {
		times = append(times, s.Now())
		after(s, 1, func() { times = append(times, s.Now()) })
	})
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("nested schedule times: %v", times)
	}
}

func TestHorizonStopsBeforeEvent(t *testing.T) {
	s := NewSim()
	fired := false
	after(s, 10, func() { fired = true })
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
		after(s, float64(i), func() {
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

// A NaN horizon compares past no event time, so it must be refused up
// front with its own error: before, it ran every event until the queue
// emptied and reported success.
func TestRunRejectsNaNHorizon(t *testing.T) {
	s := NewSim()
	fired := 0
	after(s, 1, func() { fired++ })
	err := s.Run(math.NaN())
	if !errors.Is(err, ErrNaNHorizon) || errors.Is(err, ErrStopped) {
		t.Fatalf("Run(NaN) err = %v, want ErrNaNHorizon and not ErrStopped", err)
	}
	ok, err := s.RunUntil(math.NaN(), func() bool { return true })
	if ok || !errors.Is(err, ErrNaNHorizon) {
		t.Fatalf("RunUntil(NaN) = %v, %v, want false, ErrNaNHorizon", ok, err)
	}
	if fired != 0 || s.FiredEvents() != 0 || s.Now() != 0 {
		t.Fatalf("NaN horizon fired %d events, clock %v", s.FiredEvents(), s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := NewSim()
	count := 0
	for i := 1; i <= 10; i++ {
		after(s, float64(i), func() { count++ })
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

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	NewSim().SchedulePayload(-1, func(Payload) {}, Payload{})
}

func TestEvery(t *testing.T) {
	s := NewSim()
	var ticks []float64
	s.Every(2, func(now float64) { ticks = append(ticks, now) })
	if err := s.Run(7); err != nil {
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

func TestManyEventsThroughput(t *testing.T) {
	s := NewSim()
	r := rng.New(1)
	const n = 20000
	for i := 0; i < n; i++ {
		after(s, r.Float64()*1000, func() {})
	}
	if err := s.Run(2000); err != nil {
		t.Fatal(err)
	}
	if s.FiredEvents() != n {
		t.Fatalf("fired %d of %d", s.FiredEvents(), n)
	}
}

// replicate runs Replicate and fails the test on an error.
func replicate[T any](t *testing.T, n, workers int, seed uint64, body func(rep int, r *rng.Rand) (T, error)) []T {
	t.Helper()
	out, err := Replicate(SplitStreams(seed, n), workers, body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestReplicateDeterministicAcrossWorkers(t *testing.T) {
	body := func(rep int, r *rng.Rand) (float64, error) {
		sum := 0.0
		for i := 0; i < 100; i++ {
			sum += r.Float64()
		}
		return sum, nil
	}
	one := replicate(t, 50, 1, 42, body)
	four := replicate(t, 50, 4, 42, body)
	sixteen := replicate(t, 50, 16, 42, body)
	for i := range one {
		if one[i] != four[i] || one[i] != sixteen[i] {
			t.Fatalf("replication %d differs across worker counts: %v %v %v",
				i, one[i], four[i], sixteen[i])
		}
	}
}

func TestReplicateStreamsIndependent(t *testing.T) {
	out := replicate(t, 20, 4, 7, func(rep int, r *rng.Rand) (float64, error) { return r.Float64(), nil })
	seen := map[float64]bool{}
	for _, v := range out {
		if seen[v] {
			t.Fatalf("duplicate first draw %v across replications", v)
		}
		seen[v] = true
	}
}

func TestReplicateZero(t *testing.T) {
	if out := replicate(t, 0, 4, 1, func(int, *rng.Rand) (int, error) { return 1, nil }); out != nil {
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
			after(s, r.Float64()*100, func() {
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
	noop := func(Payload) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSim()
		for j := 0; j < 1000; j++ {
			s.SchedulePayload(r.Float64()*100, noop, Payload{})
		}
		if err := s.Run(200); err != nil {
			b.Fatal(err)
		}
	}
}

// SchedulePayload must fire events from different callbacks in
// FIFO-per-time order and deliver the scheduled argument.
func TestSchedulePayload(t *testing.T) {
	s := NewSim()
	var order []int32
	var params []float64
	record := func(p Payload) {
		order = append(order, p.Node)
		params = append(params, p.P)
	}
	s.SchedulePayload(2, record, Payload{Node: 2, P: 0.5})
	after(s, 1, func() { order = append(order, 1) })
	s.SchedulePayload(2, record, Payload{Node: 3})
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	if len(params) != 2 || params[0] != 0.5 || params[1] != 0 {
		t.Fatalf("payload parameters %v, want [0.5 0]", params)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// Reset must make a reused simulator behave exactly like a fresh one.
func TestSimReset(t *testing.T) {
	run := func(s *Sim) []float64 {
		var times []float64
		after(s, 1, func() {
			times = append(times, s.Now())
			after(s, 2, func() { times = append(times, s.Now()) })
		})
		s.SchedulePayload(5, func(Payload) { times = append(times, s.Now()) }, Payload{})
		after(s, 100, func() { times = append(times, s.Now()) }) // beyond horizon
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

// Steady-state Reset+run cycles must recycle every arena slot: after a
// warm-up run sized like the steady state, further runs allocate
// nothing in the des layer.
func TestResetRunCycleZeroAllocs(t *testing.T) {
	s := NewSim()
	var sink int
	count := func(Payload) { sink++ }
	cycle := func() {
		s.Reset()
		// Span several arena blocks to exercise the block cursor.
		for i := 0; i < 3*eventArenaSize; i++ {
			s.SchedulePayload(float64(i%7), count, Payload{Node: int32(i)})
		}
		if err := s.Run(100); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm-up: grows the arena and the pending heap
	allocs := testing.AllocsPerRun(10, cycle)
	if allocs != 0 {
		t.Fatalf("steady-state Reset+run cycle allocated %.1f times per run, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("events did not fire")
	}
}

// refEvent, refHeap and refSim are the pre-typed-heap scheduler kept as
// an oracle: container/heap over event pointers ordered by (time, seq).
type refEvent struct {
	time float64
	seq  uint64
	id   int
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

func (r *refSim) schedule(delay float64, id int) {
	heap.Push(&r.h, &refEvent{time: r.now + delay, seq: r.seq, id: id})
	r.seq++
}

// step fires the earliest event and returns its id (-1 when empty).
func (r *refSim) step() int {
	if r.h.Len() == 0 {
		return -1
	}
	e := heap.Pop(&r.h).(*refEvent)
	r.now = e.time
	return e.id
}

// The typed value heap must fire exactly the events the container/heap
// reference fires, in the same order, under random interleavings of
// schedules (drawn from a handful of delays, so equal times are the
// norm) and steps — including across Resets.
func TestTypedHeapMatchesContainerHeapOracle(t *testing.T) {
	delays := []float64{0, 0, 1, 1, 2, 0.5, 3}
	fired := -1
	record := func(p Payload) { fired = int(p.Node) }
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		s := NewSim()
		for run := 0; run < 3; run++ {
			s.Reset()
			ref := &refSim{}
			for op, id := 0, 0; op < 600; op++ {
				if r.Intn(10) < 6 {
					d := delays[r.Intn(len(delays))]
					s.SchedulePayload(d, record, Payload{Node: int32(id)})
					ref.schedule(d, id)
					id++
					continue
				}
				fired = -1
				s.Step()
				if want := ref.step(); fired != want {
					t.Fatalf("seed %d run %d op %d: fired %d, oracle %d", seed, run, op, fired, want)
				}
				if s.Now() != ref.now {
					t.Fatalf("seed %d run %d op %d: clock %v, oracle %v", seed, run, op, s.Now(), ref.now)
				}
			}
			for want := ref.step(); want >= 0; want = ref.step() {
				fired = -1
				s.Step()
				if fired != want {
					t.Fatalf("seed %d run %d drain: fired %d, oracle %d", seed, run, fired, want)
				}
			}
			if s.Step() {
				t.Fatalf("seed %d run %d: typed heap fired past the oracle", seed, run)
			}
		}
	}
}
