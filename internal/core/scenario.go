package core

import (
	"context"
	"fmt"

	"diversify/internal/diversity"
	"diversify/internal/exploits"
	"diversify/internal/indicators"
	"diversify/internal/malware"
	"diversify/internal/rng"
	"diversify/internal/topology"
)

// CampaignScenario runs a malware campaign on a topology, with DoE factor
// levels bound to component variants through Factors. The topology and
// catalog are shared read-only across replications.
type CampaignScenario struct {
	Topo    *topology.Topology
	Catalog *exploits.Catalog
	Profile malware.Profile
	Horizon float64
	// Factors maps a design factor to the component class its level (a
	// variant ID) is installed on, class-wide. The class
	// exploits.ClassFirewall sets the campaign's firewall override
	// instead (firewalls live on links). Nil runs the topology defaults.
	Factors map[string]exploits.Class
}

var _ Scenario = (*CampaignScenario)(nil)

// Replicate binds levels once (assignment overlay, firewall override)
// and runs the design run on a malware.Runner: one reusable campaign per
// worker, Reset for every replication.
func (s *CampaignScenario) Replicate(levels Levels, streams []rng.Rand, workers int) ([]indicators.Outcome, error) {
	cfg := malware.Config{Topo: s.Topo, Catalog: s.Catalog, Profile: s.Profile}
	assign := diversity.NewAssignment()
	for factor, class := range s.Factors {
		level, ok := levels[factor]
		if !ok {
			return nil, fmt.Errorf("core: design has no factor %q", factor)
		}
		variant := exploits.VariantID(level)
		if class == exploits.ClassFirewall {
			cfg.FirewallVariant = variant
			continue
		}
		assign.SetClassEverywhere(s.Topo, class, variant)
	}
	run, err := malware.NewRunner(cfg, s.Horizon, streams, workers)
	if err != nil {
		return nil, err
	}
	outs := make([]indicators.Outcome, len(streams))
	// The outcomes outlive the worker's next Reset, so each one detaches
	// its timeline from the campaign.
	if _, err := run.Run(context.Background(), malware.Job{Assign: assign.Func()}, func(i int, out indicators.Outcome) { outs[i] = out.Clone() }); err != nil {
		return nil, err
	}
	return outs, nil
}
