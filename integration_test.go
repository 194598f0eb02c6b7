package diversify

import (
	"math"
	"net"
	"testing"
	"time"

	"diversify/internal/des"
	"diversify/internal/diversity"
	"diversify/internal/exploits"
	"diversify/internal/indicators"
	"diversify/internal/malware"
	"diversify/internal/modbus"
	"diversify/internal/physics"
	"diversify/internal/rng"
	"diversify/internal/scada"
	"diversify/internal/scope"
	"diversify/internal/topology"
)

// TestIntegrationRemoteHMIOverTCP drives the full vertical stack: a
// physical cooling plant controlled by a PLC whose register file is
// served over real Modbus/TCP, polled by a remote client — then the
// Stuxnet write path against both protocol dialects.
func TestIntegrationRemoteHMIOverTCP(t *testing.T) {
	sim := des.NewSim()
	proc, err := physics.NewCoolingPlant(physics.DefaultCoolingConfig())
	if err != nil {
		t.Fatal(err)
	}
	plc, err := scada.NewPLC("remote-plc", 8, 4, 1,
		scada.ProportionalCooling([]int{0, 1, 2, 3}, []int{0, 1, 2, 3}, []int{4, 5, 6, 7}, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < 4; z++ {
		if err := plc.SetHolding(z, 30); err != nil {
			t.Fatal(err)
		}
	}
	var sensors []scada.SensorBinding
	var acts []scada.ActuatorBinding
	for z := 0; z < 4; z++ {
		sensors = append(sensors, scada.SensorBinding{SensorIndex: z, PLC: plc, InputReg: z})
		acts = append(acts, scada.ActuatorBinding{PLC: plc, HoldingReg: 4 + z, CmdIndex: z})
	}
	plant, err := scada.NewPlant(sim, rng.New(1), scada.PlantConfig{
		Process: proc, PLCs: []*scada.PLC{plc},
		Sensors: sensors, Actuators: acts,
		StepPeriod: 0.05, PollPeriod: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	plant.Start()
	if err := sim.Run(24); err != nil { // reach thermal steady state
		t.Fatal(err)
	}

	// Serve the PLC's live register file over TCP with the diversified
	// dialect.
	key := []byte("site-42")
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := modbus.NewServer(plc.Model, modbus.NewDiversifiedDialect(key))
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()

	// Legitimate remote HMI (same dialect) reads a believable zone
	// temperature.
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	hmiClient := modbus.NewClient(conn, modbus.NewDiversifiedDialect(key), 1, 2*time.Second)
	regs, err := hmiClient.ReadInput(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for z, raw := range regs {
		temp := float64(raw) / scada.Scale
		if temp < 20 || temp > 45 {
			t.Fatalf("zone %d temperature over TCP = %v°C, implausible", z, temp)
		}
	}
	// Operator changes a setpoint remotely; the PLC logic must act on it.
	if err := hmiClient.WriteRegister(0, uint16(25*scada.Scale)); err != nil {
		t.Fatal(err)
	}
	if sp, err := plc.Holding(0); err != nil || math.Abs(sp-25) > 0.1 {
		t.Fatalf("remote setpoint did not land: %v %v", sp, err)
	}

	// Attacker with a standard-dialect Stuxnet payload is rejected.
	attConn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	attacker := modbus.NewClient(attConn, modbus.StandardDialect{}, 1, 2*time.Second)
	if err := attacker.WriteRegister(4, 0); err == nil {
		t.Fatal("standard-dialect attack write accepted by diversified endpoint")
	}
	if cmd, err := plc.Holding(4); err != nil || cmd == 0 {
		// Command register must still hold the controller's value, not 0.
		if err != nil {
			t.Fatal(err)
		}
		t.Fatalf("attack overwrote the cooling command: %v", cmd)
	}

	if err := hmiClient.Close(); err != nil {
		t.Fatal(err)
	}
	if err := attacker.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationFormalismConsistency checks that the SAN case-study
// model and the full campaign simulator agree on the *direction* of the
// diversity effect on the same cooling topology.
func TestIntegrationFormalismConsistency(t *testing.T) {
	cs := scope.NewCaseStudy()
	hardenedAssign, err := cs.PlacementAssignment(2, scope.StrategyStrategic, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	const reps = 50
	const horizon = 720.0

	sanPSA := func(assign *diversity.Assignment) float64 {
		outs, err := des.Replicate(des.SplitStreams(3, reps), 0, func(rep int, r *rng.Rand) (indicators.Outcome, error) {
			return cs.EvaluateSAN(assign, r, horizon)
		})
		if err != nil {
			t.Fatal(err)
		}
		succ := 0
		for _, o := range outs {
			if o.Success {
				succ++
			}
		}
		return float64(succ) / reps
	}
	campaignPSA := func(assign *diversity.Assignment) float64 {
		outs, err := des.Replicate(des.SplitStreams(3, reps), 0, func(rep int, r *rng.Rand) (indicators.Outcome, error) {
			cfg := malware.Config{Topo: cs.Topo, Catalog: cs.Catalog,
				Profile: malware.StuxnetProfile(), Rand: r}
			if assign != nil {
				cfg.Assign = assign.Func()
			}
			c, err := malware.NewCampaign(cfg)
			if err != nil {
				return indicators.Outcome{}, err
			}
			return c.Run(horizon)
		})
		if err != nil {
			t.Fatal(err)
		}
		succ := 0
		for _, o := range outs {
			if o.Success {
				succ++
			}
		}
		return float64(succ) / reps
	}

	sanBase, sanHard := sanPSA(nil), sanPSA(hardenedAssign)
	campBase, campHard := campaignPSA(nil), campaignPSA(hardenedAssign)
	if sanHard >= sanBase {
		t.Fatalf("SAN model: hardening did not lower PSA (%v → %v)", sanBase, sanHard)
	}
	if campHard >= campBase {
		t.Fatalf("campaign model: hardening did not lower PSA (%v → %v)", campBase, campHard)
	}
	// Both formalisms should show a LARGE effect, not a marginal one.
	if sanBase-sanHard < 0.3 || campBase-campHard < 0.3 {
		t.Fatalf("formalisms disagree on effect size: SAN %v→%v, campaign %v→%v",
			sanBase, sanHard, campBase, campHard)
	}
}

// TestIntegrationDiversityIndicesTrackCampaign ties the diversity degree
// to measured security: spreading more OS variants must not yield faster
// attacks on average (rank agreement, not exact calibration).
func TestIntegrationDiversityIndicesTrackCampaign(t *testing.T) {
	cat := exploits.StuxnetCatalog()
	var ttas []float64
	for _, k := range []int{1, 4} {
		topo := topology.NewTieredSCADA(topology.DefaultTieredSpec())
		assign := diversity.NewAssignment()
		if err := diversity.SpreadVariants(topo, assign, cat, exploits.ClassOS, k); err != nil {
			t.Fatal(err)
		}
		outs, err := des.Replicate(des.SplitStreams(17, 60), 0, func(rep int, r *rng.Rand) (indicators.Outcome, error) {
			c, err := malware.NewCampaign(malware.Config{
				Topo: topo, Catalog: cat, Profile: malware.StuxnetProfile(),
				Rand: r, Assign: assign.Func(),
			})
			if err != nil {
				return indicators.Outcome{}, err
			}
			return c.Run(720)
		})
		if err != nil {
			t.Fatal(err)
		}
		tta, err := indicators.TTASummary(outs)
		if err != nil {
			t.Fatal(err)
		}
		ttas = append(ttas, tta.Mean)
	}
	if ttas[1] <= ttas[0] {
		t.Fatalf("k=4 attacks no slower than the monoculture: mean TTA %v", ttas)
	}
}
