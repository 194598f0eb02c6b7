package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"diversify/internal/des"
	"diversify/internal/diversity"
	"diversify/internal/evalstore"
	"diversify/internal/exploits"
	"diversify/internal/malware"
	"diversify/internal/optimize"
	"diversify/internal/rng"
	"diversify/internal/rotation"
	"diversify/internal/topology"
)

// probeBudget is the wall-clock each layer measurement spends.
const probeBudget = 400 * time.Millisecond

// sink keeps probe results observable so the compiler cannot drop the
// measured calls.
var sink uint64

// perOp times op(n), n repetitions of one operation, in batches until
// budget elapses and returns the median time per operation in ns and
// the operations run. The batch size is first doubled until a batch
// takes a twentieth of the budget.
func perOp(budget time.Duration, op func(n int)) (float64, int) {
	n := 1
	for {
		t := time.Now()
		op(n)
		if time.Since(t) >= budget/20 || n >= 1<<30 {
			break
		}
		n *= 2
	}
	var per []float64
	ops := 0
	start := time.Now()
	for len(per) < 5 || time.Since(start) < budget {
		t := time.Now()
		op(n)
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
		ops += n
	}
	return median(per), ops
}

// prober measures the layers of one workload's problem and records a
// span per measurement.
type prober struct {
	rec    *recorder
	w      *workload
	p      optimize.Problem
	best   *diversity.Assignment
	cands  []optimize.Candidate
	dir    string // scratch directory for store files
	layers map[string]float64
}

// timed runs fn under a root span named name.
func (pr *prober) timed(name string, fn func() int) {
	start := time.Now()
	ops := fn()
	pr.rec.add(name, -1, start, time.Now(), ops)
}

// probeCandidates is the evaluator probe's fixed candidate list: single
// options spread evenly over the option space, applied to the base
// placement, all static so replication cost is comparable across
// workloads.
func probeCandidates(p *optimize.Problem, k int) []optimize.Candidate {
	out := make([]optimize.Candidate, 0, k)
	for i := 0; i < k && i < len(p.Options); i++ {
		a := diversity.NewAssignment()
		p.Options[i*len(p.Options)/k].Apply(a)
		out = append(out, optimize.Candidate{A: a, Rot: -1})
	}
	return out
}

// probeAll measures every layer and returns the per-layer metrics.
func probeAll(rec *recorder, w *workload, p optimize.Problem, best *diversity.Assignment, evaluations int, dir string) (map[string]float64, error) {
	pr := &prober{rec: rec, w: w, p: p, best: best, cands: probeCandidates(&p, w.probeCands), dir: dir, layers: map[string]float64{}}
	pr.topology()
	pr.rng()
	depth, err := pr.malware()
	if err != nil {
		return nil, err
	}
	pr.des(depth)
	if err := pr.rotation(); err != nil {
		return nil, err
	}
	pr.diversity()
	if err := pr.evalstore(max(evaluations, 64)); err != nil {
		return nil, err
	}
	if err := pr.evaluator(); err != nil {
		return nil, err
	}
	return pr.layers, nil
}

func (pr *prober) topology() {
	pr.timed("probe.topology.build", func() int {
		ns, ops := perOp(probeBudget, func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(len(pr.w.plant().Nodes()))
			}
		})
		pr.layers["topology.build_ms"] = ns / 1e6
		return ops
	})
	pr.timed("probe.topology.neighbors_by_vector", func() int {
		t := pr.p.Topo
		nodes := len(t.Nodes())
		vectors := []exploits.Vector{exploits.VectorUSB, exploits.VectorAdjacent, exploits.VectorRemote, exploits.VectorLocal}
		ns, ops := perOp(probeBudget, func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(len(t.NeighborsByVector(topology.NodeID(i%nodes), vectors[i&3])))
			}
		})
		pr.layers["topology.neighbors_by_vector_ns"] = ns
		return ops
	})
}

func (pr *prober) rng() {
	pr.timed("probe.rng.uint64", func() int {
		r := rng.New(pr.p.Seed)
		ns, ops := perOp(probeBudget, func(n int) {
			for i := 0; i < n; i++ {
				sink ^= r.Uint64()
			}
		})
		pr.layers["rng.uint64_ns"] = ns
		return ops
	})
}

// campaign builds a reusable campaign on the workload's plant.
func (pr *prober) campaign() (*malware.Campaign, error) {
	return malware.NewCampaign(malware.Config{
		Topo: pr.p.Topo, Catalog: pr.p.Catalog, Profile: pr.p.Profile, Rand: rng.New(pr.p.Seed),
	})
}

// replicate returns an op running one Reset+Run replication per
// repetition, cycling through the probe candidates' placements and a
// fixed list of stream seeds.
func (pr *prober) replicate(c *malware.Campaign, compromised *float64) func(n int) {
	assigns := make([]malware.Assignment, len(pr.cands))
	for i, cand := range pr.cands {
		assigns[i] = cand.A.Func()
	}
	seeds := make([]uint64, 64)
	root := rng.New(pr.p.Seed)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}
	r := rng.New(0)
	horizon := pr.p.Horizon
	if horizon <= 0 {
		horizon = 720
	}
	nodes := float64(len(pr.p.Topo.Nodes()))
	k := 0
	return func(n int) {
		for i := 0; i < n; i++ {
			r.Seed(seeds[k%len(seeds)])
			c.Reset(assigns[k%len(assigns)], r)
			k++
			out, err := c.Run(horizon)
			if err != nil {
				panic(fmt.Sprintf("campaign replication: %v", err))
			}
			if compromised != nil && len(out.Compromised) > 0 {
				*compromised += out.Compromised[len(out.Compromised)-1].Value * nodes
			}
		}
	}
}

// malware measures one Reset+Run replication and returns the estimated
// event-queue depth of a campaign: three periodic behaviours (spread,
// beacon, exfiltration) per compromised node at the horizon, plus the
// seeding process.
func (pr *prober) malware() (int, error) {
	c, err := pr.campaign()
	if err != nil {
		return 0, err
	}
	var depth int
	pr.timed("probe.malware.rep", func() int {
		var compromised float64
		op := pr.replicate(c, &compromised)
		op(len(pr.cands)) // grow the campaign's arenas first
		compromised = 0
		var before, after runtime.MemStats
		const allocReps = 64
		runtime.ReadMemStats(&before)
		op(allocReps)
		runtime.ReadMemStats(&after)
		depth = 1 + int(3*compromised/allocReps)
		pr.layers["malware.rep_allocs"] = float64(after.Mallocs-before.Mallocs) / allocReps
		ns, ops := perOp(probeBudget, op)
		pr.layers["malware.rep_us"] = ns / 1e3
		return ops + allocReps
	})
	return depth, nil
}

// des measures one SchedulePayload+Step pair at a fixed queue depth.
func (pr *prober) des(depth int) {
	pr.timed("probe.des.schedule_step", func() int {
		r := rng.New(pr.p.Seed)
		delays := make([]float64, 1024)
		for i := range delays {
			delays[i] = r.Exp(1)
		}
		noop := func(des.Payload) {}
		sim := des.NewSim()
		const pairs = 4096
		var per []float64
		ops := 0
		start := time.Now()
		for len(per) < 5 || time.Since(start) < probeBudget {
			// Refill to the target depth outside the timed loop: the arena
			// only recycles slots on Reset.
			sim.Reset()
			for i := 0; i < depth; i++ {
				sim.SchedulePayload(delays[i&1023], noop, des.Payload{})
			}
			t := time.Now()
			for i := 0; i < pairs; i++ {
				sim.SchedulePayload(delays[i&1023], noop, des.Payload{})
				sim.Step()
			}
			per = append(per, float64(time.Since(t).Nanoseconds())/pairs)
			ops += pairs
		}
		pr.layers["des.schedule_step_ns"] = median(per)
		pr.layers["des.queue_depth"] = float64(depth)
		return ops
	})
}

// rotation measures a rotated replication against a static one,
// alternating batches so drift hits both alike. Static workloads use
// the rotating workload's first schedule.
func (pr *prober) rotation() error {
	spec, err := rotation.ParseSpec("adaptive:24x2")
	if err != nil {
		return err
	}
	if len(pr.p.Rotations) > 0 {
		spec = pr.p.Rotations[0]
	}
	eng, err := rotation.NewEngine(spec, pr.p.Topo, pr.p.Catalog, pr.p.Profile)
	if err != nil {
		return err
	}
	static, err := pr.campaign()
	if err != nil {
		return err
	}
	rotated, err := pr.campaign()
	if err != nil {
		return err
	}
	rotated.SetRotation(eng)
	pr.timed("probe.rotation.rep_overhead", func() int {
		opS, opR := pr.replicate(static, nil), pr.replicate(rotated, nil)
		n := len(pr.cands)
		opS(n)
		opR(n)
		var s, r []float64
		start := time.Now()
		for len(s) < 5 || time.Since(start) < 2*probeBudget {
			t := time.Now()
			opS(n)
			s = append(s, float64(time.Since(t).Nanoseconds())/float64(n))
			t = time.Now()
			opR(n)
			r = append(r, float64(time.Since(t).Nanoseconds())/float64(n))
		}
		pr.layers["rotation.rep_overhead_us"] = (median(r) - median(s)) / 1e3
		return 2 * n * len(s)
	})
	return nil
}

// diversity measures the decision layer's per-candidate primitives on
// the run's winning placement.
func (pr *prober) diversity() {
	a := pr.best
	pr.timed("probe.diversity.cost", func() int {
		var total float64
		ns, ops := perOp(probeBudget, func(n int) {
			for i := 0; i < n; i++ {
				total += pr.p.Cost.Cost(pr.p.Topo, a)
			}
		})
		sink += uint64(total)
		pr.layers["diversity.cost_us"] = ns / 1e3
		return ops
	})
	pr.timed("probe.diversity.fingerprint", func() int {
		ns, ops := perOp(probeBudget, func(n int) {
			for i := 0; i < n; i++ {
				sink ^= a.Fingerprint()
			}
		})
		pr.layers["diversity.fingerprint_ns"] = ns
		return ops
	})
	pr.timed("probe.diversity.clone", func() int {
		ns, ops := perOp(probeBudget, func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(a.Clone().Len())
			}
		})
		pr.layers["diversity.clone_ns"] = ns
		return ops
	})
}

// evalstore measures appends, a full open and lookups on a store of
// records synthetic keys, the size of the run's own store.
func (pr *prober) evalstore(records int) error {
	r := rng.New(pr.p.Seed)
	keys := make([]evalstore.Key, records)
	for i := range keys {
		keys[i] = evalstore.Key{Topo: r.Uint64(), Cand: r.Uint64(), Spec: r.Uint64()}
	}
	var m evalstore.Measurements
	for i := range m {
		m[i] = r.Float64()
	}
	path := filepath.Join(pr.dir, "probe.store")
	var err error
	pr.timed("probe.evalstore.put", func() int {
		var per []float64
		start := time.Now()
		for err == nil && (len(per) < 3 || time.Since(start) < probeBudget) {
			if rerr := os.Remove(path); rerr != nil && !os.IsNotExist(rerr) {
				err = rerr
				return 0
			}
			var st *evalstore.Store
			if st, err = evalstore.Open(path); err != nil {
				return 0
			}
			t := time.Now()
			for _, k := range keys {
				if err = st.Put(k, m); err != nil {
					break
				}
			}
			per = append(per, float64(time.Since(t).Nanoseconds())/float64(len(keys)))
			if cerr := st.Close(); err == nil {
				err = cerr
			}
		}
		pr.layers["evalstore.put_us"] = median(per) / 1e3
		return len(per) * len(keys)
	})
	if err != nil {
		return fmt.Errorf("evalstore probe: %w", err)
	}
	var st *evalstore.Store
	pr.timed("probe.evalstore.open", func() int {
		var per []float64
		start := time.Now()
		for err == nil && (len(per) < 3 || time.Since(start) < probeBudget) {
			if st != nil {
				st.Close()
			}
			t := time.Now()
			st, err = evalstore.Open(path)
			per = append(per, float64(time.Since(t).Nanoseconds()))
		}
		pr.layers["evalstore.open_ms"] = median(per) / 1e6
		return len(per)
	})
	if err != nil {
		return fmt.Errorf("evalstore probe: %w", err)
	}
	defer st.Close()
	pr.timed("probe.evalstore.get", func() int {
		ns, ops := perOp(probeBudget, func(n int) {
			for i := 0; i < n; i++ {
				got, _ := st.Get(keys[i%len(keys)])
				sink += uint64(got[0])
			}
		})
		pr.layers["evalstore.get_ns"] = ns
		return ops
	})
	return nil
}

// evalProbe is a strategy that times the evaluator it is handed: one
// pass over a fixed candidate list (misses, or store hits when the
// store already holds them), then memo-hit passes and the Cost and
// ZoneOK checks.
type evalProbe struct {
	name  string
	cands []optimize.Candidate
	rec   *recorder
	// firstOnly skips everything after the first pass.
	firstOnly bool
	// Results, per candidate or check.
	firstUS, hitNS, costUS, zoneUS float64
}

func (e *evalProbe) Name() string { return e.name }

func (e *evalProbe) Search(_ context.Context, _ *optimize.Problem, ev *optimize.Evaluator, _ *rng.Rand) ([]optimize.TraceStep, error) {
	start := time.Now()
	for _, c := range e.cands {
		if _, err := ev.Score(c); err != nil {
			return nil, err
		}
	}
	e.firstUS = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(e.cands))
	e.rec.add("probe.optimize.score_first_pass", -1, start, time.Now(), len(e.cands))
	if e.firstOnly {
		return nil, nil
	}
	var err error
	loop := func(name string, check func(c optimize.Candidate)) float64 {
		t := time.Now()
		ns, ops := perOp(probeBudget/2, func(n int) {
			for i := 0; i < n; i++ {
				check(e.cands[i%len(e.cands)])
			}
		})
		e.rec.add(name, -1, t, time.Now(), ops)
		return ns
	}
	e.hitNS = loop("probe.optimize.score_hit", func(c optimize.Candidate) {
		if _, serr := ev.Score(c); serr != nil {
			err = serr
		}
	})
	e.costUS = loop("probe.optimize.eval_cost", func(c optimize.Candidate) { sink += uint64(ev.Cost(c)) }) / 1e3
	e.zoneUS = loop("probe.optimize.zoneok", func(c optimize.Candidate) {
		if ev.ZoneOK(c.A) {
			sink++
		}
	}) / 1e3
	return nil, err
}

// evaluator runs the probe strategy twice against one store: the first
// run's first pass simulates every candidate, the second run's first
// pass is served from the store.
func (pr *prober) evaluator() error {
	path := filepath.Join(pr.dir, "probe-eval.store")
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	p := pr.p
	p.Rotations, p.Base, p.BaseRotation = nil, nil, 0
	miss := &evalProbe{name: "perfbench-probe", cands: pr.cands, rec: pr.rec}
	if _, err := optimize.RunWith(context.Background(), p, miss, optimize.RunOptions{StorePath: path}); err != nil {
		return fmt.Errorf("evaluator probe: %w", err)
	}
	stored := &evalProbe{name: "perfbench-probe", cands: pr.cands, rec: pr.rec, firstOnly: true}
	if _, err := optimize.RunWith(context.Background(), p, stored, optimize.RunOptions{StorePath: path}); err != nil {
		return fmt.Errorf("evaluator probe: %w", err)
	}
	workers := min(runtime.GOMAXPROCS(0), p.Reps)
	missUS := miss.firstUS
	pr.layers["optimize.score_miss_ms"] = missUS / 1e3
	pr.layers["optimize.score_hit_ns"] = miss.hitNS
	pr.layers["optimize.score_store_hit_us"] = stored.firstUS
	pr.layers["optimize.eval_cost_us"] = miss.costUS
	pr.layers["optimize.zoneok_us"] = miss.zoneUS
	pr.layers["optimize.fanout_overhead_frac"] = 1 - float64(p.Reps)*pr.layers["malware.rep_us"]/(float64(workers)*missUS)
	return nil
}
