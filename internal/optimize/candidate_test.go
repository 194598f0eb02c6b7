package optimize

import (
	"fmt"
	"slices"
	"testing"

	"diversify/internal/diversity"
	"diversify/internal/exploits"
	"diversify/internal/rng"
	"diversify/internal/topology"
)

// refZoneViolations is the per-pair census zoneViolations ran before the
// plant walk, kept as its oracle: one EffectiveVariant lookup per (node,
// carried class), then the overlay entries in oversized groups, else the
// sentinel when the base itself is oversized.
func refZoneViolations(p *Problem, a *diversity.Assignment) []diversity.Entry {
	var out []diversity.Entry
	counts := map[zoneClass]map[exploits.VariantID]bool{}
	for _, n := range p.Topo.Nodes() {
		for _, comp := range n.Components {
			class := comp.Class
			v, _ := diversity.EffectiveVariant(a, n, class)
			key := zoneClass{zone: n.Zone, class: class}
			if counts[key] == nil {
				counts[key] = map[exploits.VariantID]bool{}
			}
			counts[key][v] = true
		}
	}
	if a != nil {
		nodes := p.Topo.Nodes()
		for _, e := range a.Entries() {
			if len(counts[zoneClass{zone: nodes[e.Node].Zone, class: e.Class}]) > p.MaxPerZone {
				out = append(out, e)
			}
		}
	}
	if len(out) == 0 {
		for _, set := range counts {
			if len(set) > p.MaxPerZone {
				return []diversity.Entry{{}}
			}
		}
	}
	return out
}

// mixedBaseTopo is a four-node plant whose defaults already run two OS
// variants in one zone.
func mixedBaseTopo() *topology.Topology {
	t := topology.New()
	t.AddNode("hmi-a", topology.KindHMI, topology.ZoneControl,
		map[exploits.Class]exploits.VariantID{exploits.ClassOS: exploits.OSWin7})
	t.AddNode("hmi-b", topology.KindHMI, topology.ZoneControl,
		map[exploits.Class]exploits.VariantID{exploits.ClassOS: exploits.OSLinuxHMI})
	t.AddNode("hmi-c", topology.KindHMI, topology.ZoneControl,
		map[exploits.Class]exploits.VariantID{exploits.ClassOS: exploits.OSWin7})
	t.AddNode("eng", topology.KindEngWorkstation, topology.ZoneCorporate,
		map[exploits.Class]exploits.VariantID{exploits.ClassOS: exploits.OSWin7})
	return t
}

// zoneViolations must report exactly the oracle's entries, in the same
// order, for random overlays on carried classes at MaxPerZone 1 and 2 —
// the order matters, because repair draws its victim from it.
func TestZoneViolationsMatchCensusOracle(t *testing.T) {
	cat := exploits.StuxnetCatalog()
	allClasses := []exploits.Class{exploits.ClassOS, exploits.ClassFirewall, exploits.ClassPLCFirmware,
		exploits.ClassHMISoftware, exploits.ClassEngTools, exploits.ClassProtocol, exploits.ClassHistorian,
		exploits.ClassDevice}
	topos := map[string]*topology.Topology{
		"tiered":    topology.NewTieredSCADA(topology.DefaultTieredSpec()),
		"powergrid": topology.NewPowerGrid(topology.DefaultPowerGridSpec()),
		"grid:60":   topology.NewMeshedGrid(topology.DefaultMeshedGridSpec(60)),
		// A base that already runs two OS variants in the control zone:
		// only the sentinel can report it.
		"mixed-base": mixedBaseTopo(),
	}
	for name, topo := range topos {
		opts := diversity.EnumerateOptions(topo, cat, allClasses, nil)
		for _, maxPerZone := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/max%d", name, maxPerZone), func(t *testing.T) {
				p := &Problem{Topo: topo, MaxPerZone: maxPerZone}
				if got, want := zoneViolations(p, nil, nil), refZoneViolations(p, nil); !slices.Equal(got, want) {
					t.Fatalf("nil overlay: got %v, want %v", got, want)
				}
				r := rng.New(uint64(maxPerZone))
				a := diversity.NewAssignment()
				var buf []diversity.Entry
				violated := 0
				for step := 0; step < 300; step++ {
					o := opts[r.Intn(len(opts))]
					if r.Intn(4) == 0 {
						a.Unset(o.Node, o.Class)
					} else {
						o.Apply(a)
					}
					buf = zoneViolations(p, a, buf)
					want := refZoneViolations(p, a)
					if !slices.Equal(buf, want) {
						t.Fatalf("step %d: got %v, want %v", step, buf, want)
					}
					if len(want) > 0 {
						violated++
					}
				}
				if violated == 0 {
					t.Fatal("no step violated the constraint; the oracle compared nothing")
				}
			})
		}
	}
}
