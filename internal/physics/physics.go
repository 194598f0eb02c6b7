// Package physics provides the physical-process models that give the
// "device impairment" attack stage something real to impair:
//
//   - CoolingPlant: a machine-room cooling loop (thermal zones heated by
//     IT load and cooled by CRAC units under PLC control) modeling the
//     SCoPE data-center cooling system of the paper's case study;
//   - CentrifugeCascade: a rotor-speed model with fatigue accumulation,
//     the physical target of the original Stuxnet payload.
//
// Both implement Process, the contract the SCADA layer uses to bind PLC
// inputs/outputs to a plant. Integration uses classic fourth-order
// Runge-Kutta on the continuous dynamics.
package physics

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadConfig reports invalid plant parameters.
var ErrBadConfig = errors.New("physics: invalid configuration")

// Process is a controllable physical process advanced in fixed time
// steps by the simulation.
type Process interface {
	// Step advances the process by dt time units (hours).
	Step(dt float64)
	// Sensors returns the currently observable measurements.
	Sensors() []float64
	// Actuate applies control commands (semantics per process).
	Actuate(cmds []float64)
	// Damage returns accumulated damage in [0, 1]; 1 means destroyed.
	Damage() float64
	// Healthy reports whether the process is still within safe limits.
	Healthy() bool
}

// rk4 advances state y by dt under dynamics f (which writes dy/dt into
// the last argument). Scratch buffers are allocated by the caller via
// newRK4.
type rk4 struct {
	k1, k2, k3, k4, tmp []float64
}

func newRK4(n int) *rk4 {
	return &rk4{
		k1: make([]float64, n), k2: make([]float64, n),
		k3: make([]float64, n), k4: make([]float64, n),
		tmp: make([]float64, n),
	}
}

func (r *rk4) step(y []float64, dt float64, f func(y, dydt []float64)) {
	n := len(y)
	f(y, r.k1)
	for i := 0; i < n; i++ {
		r.tmp[i] = y[i] + dt/2*r.k1[i]
	}
	f(r.tmp, r.k2)
	for i := 0; i < n; i++ {
		r.tmp[i] = y[i] + dt/2*r.k2[i]
	}
	f(r.tmp, r.k3)
	for i := 0; i < n; i++ {
		r.tmp[i] = y[i] + dt*r.k3[i]
	}
	f(r.tmp, r.k4)
	for i := 0; i < n; i++ {
		y[i] += dt / 6 * (r.k1[i] + 2*r.k2[i] + 2*r.k3[i] + r.k4[i])
	}
}

// CoolingConfig parameterizes a CoolingPlant.
type CoolingConfig struct {
	Zones        int     // number of thermal zones (machine rooms)
	Ambient      float64 // ambient temperature, °C
	HeatLoadKW   float64 // IT heat load per zone, kW
	MaxCoolingKW float64 // CRAC capacity per zone at command 1.0, kW
	ThermalMassC float64 // zone thermal mass, kWh/°C
	LeakCoeff    float64 // passive losses to ambient, kW/°C
	CriticalTemp float64 // °C above which equipment damage accrues
	DamageRate   float64 // damage per hour per °C above critical
}

// DefaultCoolingConfig returns a plausible 4-zone machine-room plant.
// At full cooling the equilibrium sits comfortably below critical; with
// cooling off, zones blow past critical within the hour — the dynamics
// an attacker exploits.
func DefaultCoolingConfig() CoolingConfig {
	return CoolingConfig{
		Zones:        4,
		Ambient:      25,
		HeatLoadKW:   80,
		MaxCoolingKW: 120,
		ThermalMassC: 2.0,
		LeakCoeff:    0.5,
		CriticalTemp: 40,
		DamageRate:   0.02,
	}
}

// CoolingPlant models Zones thermal zones:
//
//	C dT/dt = Q_load − u·Q_cool − k·(T − T_ambient)
//
// where u ∈ [0,1] is the per-zone CRAC command. Damage accrues while a
// zone is above CriticalTemp.
type CoolingPlant struct {
	cfg    CoolingConfig
	temps  []float64
	cmds   []float64
	damage float64
	integ  *rk4
}

var _ Process = (*CoolingPlant)(nil)

// NewCoolingPlant builds the plant with all zones at ambient + a small
// offset and CRACs on.
func NewCoolingPlant(cfg CoolingConfig) (*CoolingPlant, error) {
	if cfg.Zones <= 0 || cfg.ThermalMassC <= 0 || cfg.MaxCoolingKW <= 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	p := &CoolingPlant{
		cfg:   cfg,
		temps: make([]float64, cfg.Zones),
		cmds:  make([]float64, cfg.Zones),
		integ: newRK4(cfg.Zones),
	}
	for i := range p.temps {
		p.temps[i] = cfg.Ambient + 5
		p.cmds[i] = 1
	}
	return p, nil
}

// Step advances the thermal dynamics by dt hours.
func (p *CoolingPlant) Step(dt float64) {
	if dt <= 0 {
		return
	}
	// Sub-step for stability on long steps.
	const maxSub = 0.05
	for dt > 0 {
		h := math.Min(dt, maxSub)
		p.integ.step(p.temps, h, func(y, dydt []float64) {
			for i := range y {
				cool := p.cmds[i] * p.cfg.MaxCoolingKW
				dydt[i] = (p.cfg.HeatLoadKW - cool - p.cfg.LeakCoeff*(y[i]-p.cfg.Ambient)) / p.cfg.ThermalMassC
			}
		})
		for i, t := range p.temps {
			if t > p.cfg.CriticalTemp {
				p.damage += p.cfg.DamageRate * (t - p.cfg.CriticalTemp) * h / float64(p.cfg.Zones)
			}
			// Temperatures cannot drop below ambient with this plant.
			if p.temps[i] < p.cfg.Ambient {
				p.temps[i] = p.cfg.Ambient
			}
		}
		dt -= h
	}
	if p.damage > 1 {
		p.damage = 1
	}
}

// Sensors returns the per-zone temperatures.
func (p *CoolingPlant) Sensors() []float64 { return append([]float64(nil), p.temps...) }

// Actuate sets the per-zone CRAC commands, clamped to [0,1]. Extra
// commands are ignored; missing ones leave the zone unchanged.
func (p *CoolingPlant) Actuate(cmds []float64) {
	for i := 0; i < len(cmds) && i < len(p.cmds); i++ {
		c := cmds[i]
		if math.IsNaN(c) {
			continue
		}
		p.cmds[i] = math.Max(0, math.Min(1, c))
	}
}

// Damage returns accumulated thermal damage in [0,1].
func (p *CoolingPlant) Damage() float64 { return p.damage }

// Healthy reports whether every zone is below the critical temperature
// and cumulative damage is under 50%.
func (p *CoolingPlant) Healthy() bool {
	if p.damage >= 0.5 {
		return false
	}
	for _, t := range p.temps {
		if t >= p.cfg.CriticalTemp {
			return false
		}
	}
	return true
}

// CentrifugeConfig parameterizes a CentrifugeCascade.
type CentrifugeConfig struct {
	Units        int     // number of centrifuges in the cascade
	NominalHz    float64 // design rotor speed
	MaxSafeHz    float64 // above this, overspeed stress accrues
	MinSafeHz    float64 // below this (while spinning), resonance stress
	ResponseRate float64 // first-order lag rate toward the setpoint, 1/h
	StressScale  float64 // damage per hour at 10% overspeed
}

// DefaultCentrifugeConfig mirrors the IR-1-like parameters reported in
// the Stuxnet dossier (nominal 1064 Hz; attack sequences drove rotors to
// 1410 Hz and down to 2 Hz).
func DefaultCentrifugeConfig() CentrifugeConfig {
	return CentrifugeConfig{
		Units:        6,
		NominalHz:    1064,
		MaxSafeHz:    1150,
		MinSafeHz:    800,
		ResponseRate: 30,
		StressScale:  0.8,
	}
}

// CentrifugeCascade models rotor speeds with first-order tracking of the
// commanded setpoint and fatigue accumulation outside the safe band.
type CentrifugeCascade struct {
	cfg      CentrifugeConfig
	speeds   []float64
	setpoint []float64
	damage   []float64
	integ    *rk4
}

var _ Process = (*CentrifugeCascade)(nil)

// NewCentrifugeCascade builds the cascade spinning at nominal speed.
func NewCentrifugeCascade(cfg CentrifugeConfig) (*CentrifugeCascade, error) {
	if cfg.Units <= 0 || cfg.NominalHz <= 0 || cfg.ResponseRate <= 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	c := &CentrifugeCascade{
		cfg:      cfg,
		speeds:   make([]float64, cfg.Units),
		setpoint: make([]float64, cfg.Units),
		damage:   make([]float64, cfg.Units),
		integ:    newRK4(cfg.Units),
	}
	for i := range c.speeds {
		c.speeds[i] = cfg.NominalHz
		c.setpoint[i] = cfg.NominalHz
	}
	return c, nil
}

// Step advances rotor dynamics and fatigue by dt hours.
func (c *CentrifugeCascade) Step(dt float64) {
	if dt <= 0 {
		return
	}
	const maxSub = 0.02
	for dt > 0 {
		h := math.Min(dt, maxSub)
		c.integ.step(c.speeds, h, func(y, dydt []float64) {
			for i := range y {
				dydt[i] = c.cfg.ResponseRate * (c.setpoint[i] - y[i])
			}
		})
		for i, v := range c.speeds {
			if c.damage[i] >= 1 {
				c.speeds[i] = 0 // broken rotor
				continue
			}
			var stress float64
			switch {
			case v > c.cfg.MaxSafeHz:
				stress = (v - c.cfg.MaxSafeHz) / c.cfg.NominalHz * 10
			case v > 1 && v < c.cfg.MinSafeHz:
				// Passing through resonance bands at low speed.
				stress = (c.cfg.MinSafeHz - v) / c.cfg.NominalHz * 6
			}
			c.damage[i] = math.Min(1, c.damage[i]+stress*c.cfg.StressScale*h)
		}
		dt -= h
	}
}

// Sensors returns the rotor speeds.
func (c *CentrifugeCascade) Sensors() []float64 { return append([]float64(nil), c.speeds...) }

// Actuate sets per-unit speed setpoints in Hz (clamped to >= 0).
func (c *CentrifugeCascade) Actuate(cmds []float64) {
	for i := 0; i < len(cmds) && i < len(c.setpoint); i++ {
		if math.IsNaN(cmds[i]) {
			continue
		}
		c.setpoint[i] = math.Max(0, cmds[i])
	}
}

// Damage returns the mean rotor damage in [0,1].
func (c *CentrifugeCascade) Damage() float64 {
	sum := 0.0
	for _, d := range c.damage {
		sum += d
	}
	return sum / float64(len(c.damage))
}

// Broken returns how many rotors have been destroyed.
func (c *CentrifugeCascade) Broken() int {
	n := 0
	for _, d := range c.damage {
		if d >= 1 {
			n++
		}
	}
	return n
}

// Healthy reports whether no rotor is broken and mean damage is below
// 30%.
func (c *CentrifugeCascade) Healthy() bool {
	return c.Broken() == 0 && c.Damage() < 0.3
}
