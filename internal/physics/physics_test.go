package physics

import (
	"math"
	"testing"
)

func TestCoolingEquilibrium(t *testing.T) {
	cfg := DefaultCoolingConfig()
	p, err := NewCoolingPlant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Full cooling: run to steady state and compare with the analytic
	// equilibrium T = ambient + (load − cool)/leak.
	for i := 0; i < 200; i++ {
		p.Step(0.5)
	}
	want := p.EquilibriumTemp(1)
	if want > cfg.Ambient {
		for _, temp := range p.Sensors() {
			if math.Abs(temp-want) > 0.5 {
				t.Fatalf("zone temp %v, analytic equilibrium %v", temp, want)
			}
		}
	} else {
		// Over-provisioned cooling clamps at ambient.
		for _, temp := range p.Sensors() {
			if math.Abs(temp-cfg.Ambient) > 0.5 {
				t.Fatalf("zone temp %v, want ambient %v", temp, cfg.Ambient)
			}
		}
	}
	if !p.Healthy() || p.Damage() != 0 {
		t.Fatalf("cooled plant unhealthy: damage=%v", p.Damage())
	}
}

func TestCoolingOffOverheats(t *testing.T) {
	p, err := NewCoolingPlant(DefaultCoolingConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.Actuate([]float64{0, 0, 0, 0})
	for i := 0; i < 48 && p.Healthy(); i++ {
		p.Step(0.5)
	}
	if p.Healthy() {
		t.Fatalf("plant survived with cooling off: temps=%v damage=%v", p.Sensors(), p.Damage())
	}
	if p.Damage() <= 0 {
		t.Fatal("no damage accumulated above critical temperature")
	}
}

func TestCoolingActuateClamping(t *testing.T) {
	p, err := NewCoolingPlant(DefaultCoolingConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.Actuate([]float64{-5, 7, math.NaN()})
	if p.cmds[0] != 0 || p.cmds[1] != 1 || p.cmds[2] != 1 {
		t.Fatalf("clamping failed: %v", p.cmds)
	}
	// Extra commands ignored without panic.
	p.Actuate(make([]float64, 100))
}

func TestCoolingConfigValidation(t *testing.T) {
	bad := DefaultCoolingConfig()
	bad.Zones = 0
	if _, err := NewCoolingPlant(bad); err == nil {
		t.Fatal("zero zones accepted")
	}
	bad = DefaultCoolingConfig()
	bad.ThermalMassC = 0
	if _, err := NewCoolingPlant(bad); err == nil {
		t.Fatal("zero thermal mass accepted")
	}
}

func TestCoolingDamageCap(t *testing.T) {
	cfg := DefaultCoolingConfig()
	cfg.DamageRate = 10
	p, err := NewCoolingPlant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Actuate([]float64{0, 0, 0, 0})
	for i := 0; i < 500; i++ {
		p.Step(1)
	}
	if p.Damage() > 1 {
		t.Fatalf("damage exceeded 1: %v", p.Damage())
	}
}

func TestCentrifugeNominalIsStable(t *testing.T) {
	c, err := NewCentrifugeCascade(DefaultCentrifugeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Step(1)
	}
	if !c.Healthy() || c.Damage() != 0 {
		t.Fatalf("nominal operation damaged rotors: %v", c.Damage())
	}
	for _, s := range c.Sensors() {
		if math.Abs(s-1064) > 1 {
			t.Fatalf("speed drifted: %v", s)
		}
	}
}

func TestCentrifugeStuxnetAttackBreaksRotors(t *testing.T) {
	cfg := DefaultCentrifugeConfig()
	c, err := NewCentrifugeCascade(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stuxnet sequence: drive to 1410 Hz for a while, drop to 2 Hz,
	// return to nominal; repeat.
	over := make([]float64, cfg.Units)
	under := make([]float64, cfg.Units)
	nominal := make([]float64, cfg.Units)
	for i := range over {
		over[i] = 1410
		under[i] = 2
		nominal[i] = cfg.NominalHz
	}
	cycles := 0
	for c.Broken() == 0 && cycles < 200 {
		c.Actuate(over)
		c.Step(1)
		c.Actuate(under)
		c.Step(1)
		c.Actuate(nominal)
		c.Step(2)
		cycles++
	}
	if c.Broken() == 0 {
		t.Fatalf("attack cycles did not break rotors: damage=%v", c.Damage())
	}
	if c.Healthy() {
		t.Fatal("cascade still healthy after rotor break")
	}
}

func TestCentrifugeBrokenRotorStops(t *testing.T) {
	cfg := DefaultCentrifugeConfig()
	cfg.StressScale = 50 // break fast
	c, err := NewCentrifugeCascade(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cmd := make([]float64, cfg.Units)
	for i := range cmd {
		cmd[i] = 1500
	}
	c.Actuate(cmd)
	for i := 0; i < 200; i++ {
		c.Step(1)
	}
	if c.Broken() != cfg.Units {
		t.Fatalf("broken = %d, want all %d", c.Broken(), cfg.Units)
	}
	for _, s := range c.Sensors() {
		if s != 0 {
			t.Fatalf("broken rotor still spinning at %v Hz", s)
		}
	}
}

func TestCentrifugeSetpointTracking(t *testing.T) {
	c, err := NewCentrifugeCascade(DefaultCentrifugeConfig())
	if err != nil {
		t.Fatal(err)
	}
	cmd := make([]float64, 6)
	for i := range cmd {
		cmd[i] = 900
	}
	c.Actuate(cmd)
	c.Step(1) // response rate 30/h → essentially converged in 1h
	for _, s := range c.Sensors() {
		if math.Abs(s-900) > 5 {
			t.Fatalf("tracking failed: %v", s)
		}
	}
}

func TestCentrifugeConfigValidation(t *testing.T) {
	bad := DefaultCentrifugeConfig()
	bad.Units = 0
	if _, err := NewCentrifugeCascade(bad); err == nil {
		t.Fatal("zero units accepted")
	}
}

func TestCentrifugeActuateNegativeClamped(t *testing.T) {
	c, err := NewCentrifugeCascade(DefaultCentrifugeConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Actuate([]float64{-100, math.NaN()})
	if c.setpoint[0] != 0 {
		t.Fatalf("negative setpoint accepted: %v", c.setpoint[0])
	}
	if c.setpoint[1] != 1064 {
		t.Fatalf("NaN setpoint overwrote previous value: %v", c.setpoint[1])
	}
}

func TestZeroOrNegativeStepIsNoOp(t *testing.T) {
	p, err := NewCoolingPlant(DefaultCoolingConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := p.Sensors()
	p.Step(0)
	p.Step(-1)
	after := p.Sensors()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("zero step changed state")
		}
	}
}

func BenchmarkCoolingStep(b *testing.B) {
	p, err := NewCoolingPlant(DefaultCoolingConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step(0.1)
	}
}

func BenchmarkCentrifugeStep(b *testing.B) {
	c, err := NewCentrifugeCascade(DefaultCentrifugeConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(0.1)
	}
}

// EquilibriumTemp returns the steady-state zone temperature for a fixed
// cooling command u: the closed-form oracle for the simulated plant.
func (p *CoolingPlant) EquilibriumTemp(u float64) float64 {
	return p.cfg.Ambient + (p.cfg.HeatLoadKW-u*p.cfg.MaxCoolingKW)/p.cfg.LeakCoeff
}
