// Grid-scale walkthrough: the paper makes the diversification argument
// on a toy plant; the real test is whether the Monte-Carlo + placement
// pipeline holds up at the network sizes the later diversified-network
// studies (Li et al., Chen et al.) evaluate on. This example generates a
// 200-substation meshed transmission grid (~1200 nodes), measures the
// monoculture baseline, and runs the portfolio search (greedy, then
// annealing and genetic seeded from the greedy solution) over RTU
// firmware + protocol switches.
//
// The machinery that makes this interactive rather than overnight:
//
//   - the sealed CSR topology (zero-alloc neighbor scans over ~3000 links);
//
//   - the des event arena (steady-state replications recycle every
//     event slot — a grid replication runs in tens of microseconds);
//
//   - replication-level batching across the worker pool;
//
//   - the memoizing evaluator (identical candidates are never re-simulated).
//
//     go run ./examples/grid-scale
package main

import (
	"fmt"
	"log"
	"time"

	"diversify/internal/diversity"
	"diversify/internal/exploits"
	"diversify/internal/indicators"
	"diversify/internal/malware"
	"diversify/internal/optimize"
	"diversify/internal/topology"
)

const (
	substations = 200
	budget      = 24.0
	horizon     = 240.0 // 10-day observation window
	reps        = 16
	seed        = 7
)

func main() {
	start := time.Now()
	spec := topology.DefaultMeshedGridSpec(substations)
	// A light seeded sprinkle: a few regions bought different RTUs over
	// the years, as real grids do. Same seed ⇒ byte-identical topology.
	spec.SprinkleProb = 0.1
	spec.SprinkleSeed = seed
	spec.SprinklePools = map[exploits.Class][]exploits.VariantID{
		exploits.ClassPLCFirmware: {exploits.PLCS7_417, exploits.PLCABB},
	}
	topo := topology.NewMeshedGrid(spec)
	cat := exploits.StuxnetCatalog()
	if err := topo.ValidateComponents(cat); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("meshed grid: %d substations, %d nodes, %d links, fingerprint %016x\n",
		substations, topo.Len(), len(topo.Links()), topo.Fingerprint())
	fmt.Printf("built in %v\n\n", time.Since(start).Round(time.Millisecond))

	// Monoculture baseline under the Stuxnet-class profile.
	profile := malware.StuxnetProfile()
	evalStart := time.Now()
	outs, err := malware.Evaluate(malware.EvalSpec{
		Config:  malware.Config{Topo: topo, Catalog: cat, Profile: profile},
		Horizon: horizon, Reps: reps, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	succ := 0
	ratio := 0.0
	for _, o := range outs {
		if o.Success {
			succ++
		}
		ratio += indicators.RatioAt(o.Compromised, o.Horizon)
	}
	fmt.Printf("baseline (%d reps, %.0fh horizon): PSA %.3f, compromised ratio %.3f  [%v]\n\n",
		reps, horizon, float64(succ)/float64(len(outs)), ratio/float64(len(outs)),
		time.Since(evalStart).Round(time.Millisecond))

	// Portfolio search over RTU firmware + protocol switches.
	options := diversity.EnumerateOptions(topo, cat,
		[]exploits.Class{exploits.ClassPLCFirmware, exploits.ClassProtocol},
		func(n topology.Node) bool { return n.Kind == topology.KindPLC })
	fmt.Printf("searching %d (node, class, variant) options, budget %.0f, strategy portfolio\n",
		len(options), budget)
	searchStart := time.Now()
	res, err := optimize.Run(optimize.Problem{
		Topo: topo, Catalog: cat, Profile: profile,
		Options:    options,
		Cost:       diversity.CostModel{PlatformCost: 5, NodeCost: 2},
		Budget:     budget,
		Objective:  optimize.MinimizeSuccess,
		Horizon:    horizon,
		Reps:       reps,
		Seed:       seed,
		Iterations: 40,
		Population: 12,
	}, &optimize.Portfolio{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search done in %v: %d candidates evaluated (%d replications scored), %d cache hits\n\n",
		time.Since(searchStart).Round(time.Millisecond),
		res.Evaluations, res.Replications, res.CacheHits)

	row := func(name string, s optimize.Score) {
		fmt.Printf("%-18s %-8.1f %-10.4f %-10.3f %-10.3f\n",
			name, s.Cost, s.Value, s.PSuccess, s.FinalRatio)
	}
	fmt.Printf("%-18s %-8s %-10s %-10s %-10s\n", "candidate", "cost", "value", "Psuccess", "CRfinal")
	row("baseline", res.Baseline)
	row("random-placement", res.Random)
	row("best-found", res.Best)
	fmt.Printf("\nbest assignment (%d decisions):\n", len(res.Decisions))
	for _, d := range res.Decisions {
		fmt.Printf("  %-16s %-12s -> %s\n", d.Node, d.Class, d.Variant)
	}
	fmt.Printf("\ncost-vs-risk Pareto front (%d points):\n", len(res.Pareto))
	for _, p := range res.Pareto {
		fmt.Printf("  cost %-6.1f value %-8.4f (%d decisions)\n", p.Cost, p.Value, len(p.Decisions))
	}
	fmt.Println("\nreading: even at 200 substations the attack funnels through a small cut")
	fmt.Println("set; a handful of diversified RTU stacks closes it, and the portfolio")
	fmt.Println("search finds them in seconds because steady-state replications recycle")
	fmt.Println("the event arena instead of reallocating it.")
	fmt.Printf("total %v\n", time.Since(start).Round(time.Millisecond))
}
