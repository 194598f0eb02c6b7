package rotation

import (
	"testing"

	"diversify/internal/exploits"
	"diversify/internal/malware"
	"diversify/internal/rng"
	"diversify/internal/topology"
)

// grid200Campaign builds the 200-substation steady-state pair: one
// reusable campaign and one rotation engine for it.
func grid200Campaign(b *testing.B, spec *Spec) (*malware.Campaign, *Engine) {
	b.Helper()
	topo := topology.NewMeshedGrid(topology.DefaultMeshedGridSpec(200))
	cat := exploits.StuxnetCatalog()
	c, err := malware.NewCampaign(malware.Config{
		Topo: topo, Catalog: cat, Profile: malware.StuxnetProfile(), Rand: rng.New(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	if spec == nil {
		return c, nil
	}
	eng, err := NewEngine(*spec, topo, cat, malware.StuxnetProfile())
	if err != nil {
		b.Fatal(err)
	}
	return c, eng
}

// BenchmarkRotatedCampaignGrid measures one steady-state rotated
// replication on the 200-substation grid — the acceptance path: the
// moving-target machinery must ride the same recycled arena/timeline as
// the static campaign, within a handful of allocations per op of the
// static grid:200 baseline (TestRotatedSteadyStateAllocsGrid200 asserts
// the bound).
func BenchmarkRotatedCampaignGrid(b *testing.B) {
	c, eng := grid200Campaign(b, &Spec{Kind: Periodic, Period: 24, Batch: 4})
	c.SetRotation(eng)
	r := rng.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Seed(uint64(i + 1))
		c.Reset(nil, r)
		if _, err := c.Run(168); err != nil {
			b.Fatal(err)
		}
	}
}

// The allocation acceptance: a steady-state rotated grid:200
// replication must stay within 10 allocs/op of the static grid:200
// path, and the count must be stable (nothing grows per cycle).
func TestRotatedSteadyStateAllocsGrid200(t *testing.T) {
	if testing.Short() {
		t.Skip("grid:200 alloc measurement in -short mode")
	}
	topo := topology.NewMeshedGrid(topology.DefaultMeshedGridSpec(200))
	cat := exploits.StuxnetCatalog()
	c, err := malware.NewCampaign(malware.Config{
		Topo: topo, Catalog: cat, Profile: malware.StuxnetProfile(), Rand: rng.New(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Spec{Kind: Periodic, Period: 24, Batch: 4}, topo, cat, malware.StuxnetProfile())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(0)
	cycle := func() {
		r.Seed(7)
		c.Reset(nil, r)
		if _, err := c.Run(168); err != nil {
			t.Fatal(err)
		}
	}
	measure := func() float64 {
		cycle() // warm-up: grows arena, scratch, overlay buckets
		first := testing.AllocsPerRun(5, cycle)
		second := testing.AllocsPerRun(5, cycle)
		if first != second {
			t.Fatalf("steady-state alloc count drifting (%v then %v)", first, second)
		}
		return first
	}
	c.SetRotation(nil)
	static := measure()
	c.SetRotation(eng)
	rotated := measure()
	t.Logf("grid:200 steady-state allocs/op: static %.0f, rotated %.0f", static, rotated)
	if rotated > static+10 {
		t.Fatalf("rotated replication allocates %.0f/op, more than 10 over the static %.0f/op", rotated, static)
	}
}
