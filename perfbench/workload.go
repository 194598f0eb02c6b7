package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"diversify/internal/diversity"
	"diversify/internal/exploits"
	"diversify/internal/malware"
	"diversify/internal/optimize"
	"diversify/internal/rotation"
	"diversify/internal/topology"
)

// storeMode says which durable evaluation store a workload's timed run
// attaches.
type storeMode int

const (
	noStore    storeMode = iota
	freshStore           // an empty store the run fills
	warmStore            // a pristine copy of a store populated before timing
)

// workload is one named optimization problem. Every workload uses the
// stuxnet threat, the default classes OS, PLC and Protocol, the default
// cost model and the 720 h horizon, as cmd/optimize does.
type workload struct {
	name        string
	substations int // plant: the generated meshed grid "grid:N"
	strategy    string
	budget      float64
	reps        int
	iterations  int
	objective   optimize.Objective
	rotations   []string
	store       storeMode
	// populatedBy names the workload whose run fills a warm store.
	populatedBy string
	// probeCands is how many candidates the evaluator probe scores.
	probeCands int
}

var workloads = []*workload{
	{
		// Many cheap candidates on a plant larger than cache: the
		// campaign engine dominates, and the run writes the store.
		name:        "cold-greedy-grid400",
		substations: 400, strategy: "greedy", budget: 40, reps: 8,
		store: freshStore, probeCands: 48,
	},
	{
		// Few candidates with many replications on a cache-resident
		// plant, rotation active: the decision layer's no-change control.
		name:        "rotating-anneal-grid60",
		substations: 60, strategy: "anneal", budget: 30, reps: 64, iterations: 150,
		objective:  optimize.MinimizeFoothold,
		rotations:  []string{"adaptive:24x2", "triggered:48"},
		probeCands: 12,
	},
	{
		// The cold-greedy problem re-optimized at budget 30 from a
		// populated store: no replication runs, so the decision layer and
		// store reads dominate. The engine's no-change control.
		name:        "warm-store-grid400",
		substations: 400, strategy: "greedy", budget: 30, reps: 8,
		store: warmStore, populatedBy: "cold-greedy-grid400", probeCands: 48,
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// plant generates the workload's topology and seals it, as the first
// campaign of a run would.
func (w *workload) plant() *topology.Topology {
	t := topology.NewMeshedGrid(topology.DefaultMeshedGridSpec(w.substations))
	t.Neighbors(0)
	return t
}

// problem builds the workload's optimization problem for one problem
// seed: plant generation, option enumeration and rotation parsing. This
// is the set-up a user pays before every optimization.
func (w *workload) problem(seed uint64, budget float64) (optimize.Problem, error) {
	topo := w.plant()
	cat := exploits.StuxnetCatalog()
	classes := []exploits.Class{exploits.ClassOS, exploits.ClassPLCFirmware, exploits.ClassProtocol}
	notCorporate := func(n topology.Node) bool { return n.Kind != topology.KindCorporatePC }
	var rots []rotation.Spec
	for _, sel := range w.rotations {
		spec, err := rotation.ParseSpec(sel)
		if err != nil {
			return optimize.Problem{}, err
		}
		rots = append(rots, spec)
	}
	return optimize.Problem{
		Topo: topo, Catalog: cat, Profile: malware.StuxnetProfile(),
		Options:    diversity.EnumerateOptions(topo, cat, classes, notCorporate),
		Cost:       diversity.CostModel{PlatformCost: 5, NodeCost: 2},
		Budget:     budget,
		Objective:  w.objective,
		Rotations:  rots,
		Reps:       w.reps,
		Seed:       seed,
		Iterations: w.iterations,
	}, nil
}

// answer is the part of an optimization result the benchmark checks.
type answer struct {
	Seed            uint64  `json:"seed"`
	BestFingerprint uint64  `json:"best_fingerprint"`
	BestValue       float64 `json:"best_value"`
	Evaluations     int     `json:"evaluations"`
	Pareto          int     `json:"pareto"`
	StoreHits       int     `json:"store_hits"`
}

// answerOf extracts the checked fields of a result.
func answerOf(seed uint64, res *optimize.Result) answer {
	return answer{
		Seed:            seed,
		BestFingerprint: res.BestFingerprint,
		BestValue:       res.Best.Value,
		Evaluations:     res.Evaluations,
		Pareto:          len(res.Pareto),
		StoreHits:       res.Stats.StoreHits,
	}
}

// mismatch describes how got differs from want ("" when they agree).
// Values compare bit for bit: the optimizer is deterministic.
func (want answer) mismatch(got answer) string {
	if math.Float64bits(got.BestValue) != math.Float64bits(want.BestValue) {
		return fmt.Sprintf("best value %v, want %v", got.BestValue, want.BestValue)
	}
	if got != want {
		return fmt.Sprintf("answer %+v, want %+v", got, want)
	}
	return ""
}

// recorded holds the expected answers, one list per workload. The list
// is the workload's instance pool: --seed n selects entry n mod len.
//
//go:embed answers.json
var recordedJSON []byte

func recordedAnswers() (map[string][]answer, error) {
	var out map[string][]answer
	if err := json.Unmarshal(recordedJSON, &out); err != nil {
		return nil, fmt.Errorf("answers.json: %w", err)
	}
	return out, nil
}

// instance resolves --seed to the problem seed of one of the workload's
// recorded instances.
func (w *workload) instance(seed uint64) (uint64, error) {
	all, err := recordedAnswers()
	if err != nil {
		return 0, err
	}
	pool := all[w.name]
	if len(pool) == 0 {
		return 0, fmt.Errorf("answers.json has no instances for %s", w.name)
	}
	return pool[seed%uint64(len(pool))].Seed, nil
}

// expected returns the recorded answer of the workload for a problem
// seed.
func (w *workload) expected(seed uint64) (answer, error) {
	all, err := recordedAnswers()
	if err != nil {
		return answer{}, err
	}
	for _, a := range all[w.name] {
		if a.Seed == seed {
			return a, nil
		}
	}
	return answer{}, fmt.Errorf("answers.json: no %s answer for problem seed %d", w.name, seed)
}

// copyFile copies src to dst.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
