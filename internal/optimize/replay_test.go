package optimize

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"diversify/internal/diversity"
	"diversify/internal/evalstore"
	"diversify/internal/exploits"
	"diversify/internal/malware"
	"diversify/internal/rng"
	"diversify/internal/topology"
)

// replayProblem is a static problem on topo whose options span every
// class a campaign reads, so replay meets differences in each of them.
func replayProblem(topo *topology.Topology, workers int) Problem {
	cat := exploits.StuxnetCatalog()
	p := Problem{
		Topo: topo, Catalog: cat, Profile: malware.StuxnetProfile(),
		Options: diversity.EnumerateOptions(topo, cat, []exploits.Class{
			exploits.ClassOS, exploits.ClassProtocol, exploits.ClassPLCFirmware,
			exploits.ClassHMISoftware, exploits.ClassEngTools,
		}, nil),
		Cost:    diversity.CostModel{PlatformCost: 1, NodeCost: 1},
		Budget:  math.MaxFloat64,
		Horizon: 72, Reps: 8, Seed: 17, Workers: workers,
	}
	p.normalize()
	return p
}

// newTestEvaluator builds an evaluator for a normalized problem.
func newTestEvaluator(t *testing.T, p *Problem) *Evaluator {
	t.Helper()
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	ev, err := newEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// readsOf counts the replications of a recorded reference that read
// the slot.
func readsOf(reads []malware.ReadSet, n topology.NodeID, c exploits.Class) int {
	k := 0
	for _, r := range reads {
		if r.ReadAny([]malware.Slot{{Node: n, Class: c}}) {
			k++
		}
	}
	return k
}

// baselineReads records the base candidate's read sets, as greedy's
// round 0 reference does.
func baselineReads(t *testing.T, p Problem) []malware.ReadSet {
	t.Helper()
	p.normalize()
	ev := newTestEvaluator(t, &p)
	ev.setReference(p.baseCand())
	if err := ev.record(); err != nil {
		t.Fatal(err)
	}
	return ev.ref.reads
}

// sameBits compares two measurement vectors bit for bit.
func sameBits(a, b evalstore.Measurements) bool {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// The replay oracle: under random references and candidates that
// differ from them in 1–3 entries — options set, variants switched and
// entries removed, many of them on pairs the reference reads — every
// replication a candidate replays must equal a full simulation's
// measurement vector bit for bit, and so must the mean, on every plant
// family and at one worker and one per CPU. The full simulation drops
// every resolved variant before each candidate, so it depends on
// neither read recording nor the overlay diff.
func TestReplayMatchesFullSimulation(t *testing.T) {
	for _, pl := range []struct {
		name string
		topo *topology.Topology
	}{
		{"tiered", topology.NewTieredSCADA(topology.DefaultTieredSpec())},
		{"powergrid", topology.NewPowerGrid(topology.DefaultPowerGridSpec())},
		{"grid:60", topology.NewMeshedGrid(topology.DefaultMeshedGridSpec(60))},
	} {
		for _, workers := range []int{1, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("%s/workers=%d", pl.name, workers), func(t *testing.T) {
				p := replayProblem(pl.topo, workers)
				ev, full := newTestEvaluator(t, &p), newTestEvaluator(t, &p)
				r := rng.New(5)
				// read lists the options on pairs some replication of a
				// recorded reference read.
				read := func(reads []malware.ReadSet) []diversity.Option {
					var out []diversity.Option
					for _, opt := range p.Options {
						if readsOf(reads, opt.Node, opt.Class) > 0 {
							out = append(out, opt)
						}
					}
					return out
				}
				hot := read(baselineReads(t, p))
				var partly, whole, none, removedRead int
				for trial := range 10 {
					// Half the reference's entries sit where the baseline
					// attack reads, so candidates remove read entries too.
					ref := diversity.NewAssignment()
					for range r.Intn(8) {
						if r.Intn(2) == 0 {
							hot[r.Intn(len(hot))].Apply(ref)
						} else {
							p.Options[r.Intn(len(p.Options))].Apply(ref)
						}
					}
					ev.setReference(Candidate{A: ref, Rot: -1})
					var refHot []diversity.Option
					for j := range 10 {
						cand := ref.Clone()
						removed := false
						for range 1 + r.Intn(3) {
							switch kind := r.Intn(3); {
							case kind == 0 && ref.Len() > 0:
								e := ref.Entries()[r.Intn(ref.Len())]
								cand.Unset(e.Node, e.Class)
								removed = removed || ev.ref.recorded && readsOf(ev.ref.reads, e.Node, e.Class) > 0
							case kind == 1 && len(refHot) > 0:
								// An option on a pair the reference read.
								refHot[r.Intn(len(refHot))].Apply(cand)
							default:
								p.Options[r.Intn(len(p.Options))].Apply(cand)
							}
						}
						c := Candidate{A: cand, Rot: -1}
						before := ev.tot.Replayed
						got, err := ev.simulate(c, nil)
						if err != nil {
							t.Fatal(err)
						}
						if refHot == nil {
							refHot = read(ev.ref.reads)
						}
						gotReps := append([]evalstore.Measurements(nil), ev.meas...)
						full.installedOK = false
						want, err := full.simulate(c, nil)
						if err != nil {
							t.Fatal(err)
						}
						for i := range gotReps {
							if !sameBits(gotReps[i], full.meas[i]) {
								t.Fatalf("trial %d candidate %d replication %d: got %v, full simulation %v (%d replayed)",
									trial, j, i, gotReps[i], full.meas[i], ev.tot.Replayed-before)
							}
						}
						if !sameBits(got, want) {
							t.Fatalf("trial %d candidate %d: mean %v, full simulation %v", trial, j, got, want)
						}
						switch n := ev.tot.Replayed - before; {
						case n == p.Reps:
							whole++
						case n > 0:
							partly++
							if removed {
								removedRead++
							}
						default:
							none++
						}
					}
				}
				if ev.ref.dropped || !ev.ref.recorded {
					t.Fatal("the reference was never recorded")
				}
				if partly == 0 || whole == 0 || none == 0 || removedRead == 0 {
					t.Fatalf("coverage: %d candidates partly replayed (%d removing a read entry), %d wholly, %d not at all",
						partly, removedRead, whole, none)
				}
			})
		}
	}
}

// A run served entirely from the store simulates nothing: not the
// candidates, and not a reference recording either.
func TestReplayStoreServedRunSimulatesNothing(t *testing.T) {
	store := t.TempDir() + "/evals.store"
	o, _ := ByName("greedy")
	first, err := RunWith(t.Context(), testProblem(51), o, RunOptions{StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Simulated == 0 || first.Stats.Replayed == 0 {
		t.Fatalf("first run simulated %d and replayed %d replications, want both > 0", first.Stats.Simulated, first.Stats.Replayed)
	}
	again, err := RunWith(t.Context(), testProblem(51), o, RunOptions{StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.Simulated != 0 || again.Stats.Replayed != 0 {
		t.Fatalf("store-served run simulated %d and replayed %d replications, want 0", again.Stats.Simulated, again.Stats.Replayed)
	}
	if again.Replications != first.Replications {
		t.Fatalf("logical replications %d, first run %d", again.Replications, first.Replications)
	}
}

// Rotating candidates and traced explanation replays never replay, even
// when their placement is the reference's own.
func TestReplaySkipsRotatingAndTraced(t *testing.T) {
	p := withRotations(testProblem(41))
	p.normalize()
	ev := newTestEvaluator(t, &p)
	base := p.baseCand()
	ev.setReference(base)
	// The reference's own placement replays every replication.
	if _, err := ev.Score(base); err != nil {
		t.Fatal(err)
	}
	if ev.tot.Replayed != p.Reps || ev.tot.Simulated != p.Reps {
		t.Fatalf("static copy of the reference: %d replayed, %d simulated (the recording), want %d and %d",
			ev.tot.Replayed, ev.tot.Simulated, p.Reps, p.Reps)
	}
	if _, err := ev.Score(Candidate{A: base.A, Rot: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.explain("baseline", base, 1); err != nil {
		t.Fatal(err)
	}
	if ev.tot.Replayed != p.Reps || ev.tot.Simulated != 3*p.Reps {
		t.Fatalf("rotating candidate and explanation: %d replayed, %d simulated, want %d and %d",
			ev.tot.Replayed, ev.tot.Simulated, p.Reps, 3*p.Reps)
	}
}

// A replication that panics in a partly replayed candidate still
// quarantines it: the replications it simulates see the fault hook.
func TestReplayPanicQuarantinesPartlyReplayed(t *testing.T) {
	p := replayProblem(topology.NewMeshedGrid(topology.DefaultMeshedGridSpec(60)), 0)
	reads := baselineReads(t, p)
	poison := p.base()
	found := false
	for _, opt := range p.Options {
		if n := readsOf(reads, opt.Node, opt.Class); n > 0 && n < p.Reps {
			opt.Apply(poison)
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no option is read by some but not all baseline replications")
	}
	ev := newTestEvaluator(t, &p)
	poisonFP := poison.Fingerprint()
	ev.repHook = func(c Candidate, rep int) {
		if c.A.Fingerprint() == poisonFP {
			panic("injected evaluation fault")
		}
	}
	ev.setReference(p.baseCand())
	s, err := ev.Score(Candidate{A: poison, Rot: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Quarantined || ev.tot.Quarantined != 1 {
		t.Fatalf("partly replayed poisoned candidate not quarantined: %+v", s)
	}
	if ev.tot.Replayed == 0 || ev.tot.Replayed >= p.Reps {
		t.Fatalf("poisoned candidate replayed %d of %d replications, want some", ev.tot.Replayed, p.Reps)
	}
}

// A reference whose recording panics is dropped: the candidate that
// triggered it, and every later one, is simulated in full and scores as
// a fresh evaluator does, and the recording is not retried.
func TestReplayDropsPanickingReference(t *testing.T) {
	p := testProblem(3)
	p.normalize()
	ev := newTestEvaluator(t, &p)
	baseFP := p.base().Fingerprint()
	var refCalls, candCalls atomic.Int64
	ev.repHook = func(c Candidate, rep int) {
		if c.A.Fingerprint() == baseFP {
			refCalls.Add(1)
			panic("injected recording fault")
		}
		candCalls.Add(1)
	}
	ev.setReference(p.baseCand())
	fresh := newTestEvaluator(t, &p)
	for i, opt := range p.Options[:2] {
		c := p.baseCand()
		opt.Apply(c.A)
		got, err := ev.Score(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Score(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("option %d after a dropped reference: %+v, want %+v", i, got, want)
		}
		if n := candCalls.Load(); n != int64((i+1)*p.Reps) {
			t.Fatalf("option %d: %d candidate replications simulated, want %d", i, n, (i+1)*p.Reps)
		}
	}
	if !ev.ref.dropped || ev.tot.Replayed != 0 || ev.tot.Quarantined != 0 {
		t.Fatalf("dropped %v, replayed %d, quarantined %d: want a dropped reference and nothing replayed or quarantined",
			ev.ref.dropped, ev.tot.Replayed, ev.tot.Quarantined)
	}
	if n := refCalls.Load(); n == 0 || n > 3*int64(p.Reps) {
		t.Fatalf("reference recording attempted %d replications, want one recording's retries", n)
	}
}
