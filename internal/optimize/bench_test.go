package optimize

import (
	"testing"

	"diversify/internal/diversity"
	"diversify/internal/exploits"
	"diversify/internal/malware"
	"diversify/internal/topology"
)

func benchProblem() Problem {
	topo := topology.NewTieredSCADA(topology.DefaultTieredSpec())
	cat := exploits.StuxnetCatalog()
	opts := diversity.EnumerateOptions(topo, cat,
		[]exploits.Class{exploits.ClassOS, exploits.ClassProtocol},
		func(n topology.Node) bool { return n.Kind != topology.KindCorporatePC })
	return Problem{
		Topo: topo, Catalog: cat, Profile: malware.StuxnetProfile(),
		Options: opts,
		Cost:    diversity.CostModel{PlatformCost: 5, NodeCost: 2},
		Budget:  30,
		Horizon: 168, Reps: 8, Seed: 1,
		Iterations: 8,
	}
}

// BenchmarkOptimizeGreedy measures a bounded greedy search end to end —
// the optimizer workload the perf trajectory tracks.
func BenchmarkOptimizeGreedy(b *testing.B) {
	o, err := ByName("greedy")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(benchProblem(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// gridProblem is a bounded greedy search on a generated 100-substation
// meshed grid: RTU firmware + protocol switches, a few replications per
// candidate. It exercises the scale path (hundreds of options, ~600-node
// field network) without turning the bench into a measurement job.
func gridProblem() Problem {
	topo := topology.NewMeshedGrid(topology.DefaultMeshedGridSpec(100))
	cat := exploits.StuxnetCatalog()
	opts := diversity.EnumerateOptions(topo, cat,
		[]exploits.Class{exploits.ClassPLCFirmware, exploits.ClassProtocol},
		func(n topology.Node) bool { return n.Kind == topology.KindPLC })
	return Problem{
		Topo: topo, Catalog: cat, Profile: malware.StuxnetProfile(),
		Options: opts,
		Cost:    diversity.CostModel{PlatformCost: 5, NodeCost: 2},
		Budget:  15,
		Horizon: 168, Reps: 4, Seed: 1,
		Iterations: 1,
	}
}

// BenchmarkOptimizeGrid measures one exhaustive greedy round over the
// grid-scale option space (screening disabled — the historical workload
// `-topo grid:N` used to dispatch; contrast BenchmarkScreenedGreedy).
func BenchmarkOptimizeGrid(b *testing.B) {
	o, err := ByName("greedy")
	if err != nil {
		b.Fatal(err)
	}
	p := gridProblem()
	p.ScreenTop = -1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScreenedGreedy is the same grid-scale greedy round under the
// default surrogate screen: only the top quarter of the options is
// simulated, which is what `-topo grid:N` now dispatches by default.
func BenchmarkScreenedGreedy(b *testing.B) {
	o, err := ByName("greedy")
	if err != nil {
		b.Fatal(err)
	}
	p := gridProblem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParetoGrid measures the NSGA-II multi-objective search on
// the grid-scale problem: a few generations over the cost × success ×
// detection front, memoized evaluations included.
func BenchmarkParetoGrid(b *testing.B) {
	o, err := ByName("pareto")
	if err != nil {
		b.Fatal(err)
	}
	p := gridProblem()
	p.Iterations = 2
	p.Population = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, o); err != nil {
			b.Fatal(err)
		}
	}
}
