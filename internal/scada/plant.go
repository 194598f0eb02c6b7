package scada

import (
	"fmt"
	"math"

	"diversify/internal/des"
	"diversify/internal/physics"
	"diversify/internal/rng"
)

// SensorBinding routes a process sensor to a PLC input register, with
// optional gaussian measurement noise.
type SensorBinding struct {
	SensorIndex int
	PLC         *PLC
	InputReg    int
	NoiseSigma  float64
}

// ActuatorBinding routes a PLC holding register to a process command
// channel.
type ActuatorBinding struct {
	PLC        *PLC
	HoldingReg int
	CmdIndex   int
}

// AlarmWatch supervises one supervisory value with a safe band.
type AlarmWatch struct {
	Name     string
	PLC      *PLC
	InputReg int
	Min, Max float64
}

// Alarm is a raised alarm event.
type Alarm struct {
	Time  float64
	Watch string
	Value float64
}

// HMI polls PLCs (through their supervisory interface, which replay
// spoofing subverts) and raises alarms when values leave their bands.
type HMI struct {
	watches []AlarmWatch
	alarms  []Alarm
}

// NewHMI returns an HMI with the given alarm watches.
func NewHMI(watches []AlarmWatch) *HMI {
	return &HMI{watches: append([]AlarmWatch(nil), watches...)}
}

// Poll reads every watch once and records alarms. Returns the number of
// new alarms.
func (h *HMI) Poll(now float64) int {
	raised := 0
	for _, w := range h.watches {
		v, err := w.PLC.SupervisoryInput(w.InputReg)
		if err != nil {
			continue
		}
		if v < w.Min || v > w.Max {
			h.alarms = append(h.alarms, Alarm{Time: now, Watch: w.Name, Value: v})
			raised++
		}
	}
	return raised
}

// Alarms returns all raised alarms in order.
func (h *HMI) Alarms() []Alarm { return h.alarms }

// FirstAlarmTime returns the time of the first alarm, or (0, false) if
// none fired. This is the "perceived attack manifestation" that ends the
// TTSF clock.
func (h *HMI) FirstAlarmTime() (float64, bool) {
	if len(h.alarms) == 0 {
		return 0, false
	}
	return h.alarms[0].Time, true
}

// PlantConfig wires a physical process to its controllers and
// supervision.
type PlantConfig struct {
	Process    physics.Process
	PLCs       []*PLC
	Sensors    []SensorBinding
	Actuators  []ActuatorBinding
	HMI        *HMI
	StepPeriod float64 // physics/sensor/scan period, hours
	PollPeriod float64 // HMI poll period, hours
}

// Plant couples the discrete-event engine, the physical process, the
// PLCs and the HMI into a closed control loop.
type Plant struct {
	cfg PlantConfig
	sim *des.Sim
	r   *rng.Rand
}

// NewPlant validates the wiring and prepares the loop on the given
// simulator.
func NewPlant(sim *des.Sim, r *rng.Rand, cfg PlantConfig) (*Plant, error) {
	if cfg.Process == nil {
		return nil, fmt.Errorf("scada: plant needs a process")
	}
	if cfg.StepPeriod <= 0 || cfg.PollPeriod <= 0 {
		return nil, fmt.Errorf("scada: plant periods must be positive (step=%v poll=%v)",
			cfg.StepPeriod, cfg.PollPeriod)
	}
	nSensors := len(cfg.Process.Sensors())
	for _, s := range cfg.Sensors {
		if s.SensorIndex < 0 || s.SensorIndex >= nSensors {
			return nil, fmt.Errorf("scada: sensor binding references process sensor %d (have %d)",
				s.SensorIndex, nSensors)
		}
		if s.PLC == nil {
			return nil, fmt.Errorf("scada: sensor binding without PLC")
		}
	}
	for _, a := range cfg.Actuators {
		if a.PLC == nil {
			return nil, fmt.Errorf("scada: actuator binding without PLC")
		}
	}
	return &Plant{cfg: cfg, sim: sim, r: r}, nil
}

// Start schedules the control loop: every StepPeriod the process advances,
// sensors are sampled into PLC registers, PLCs scan, and actuator
// commands are applied; every PollPeriod the HMI polls.
func (p *Plant) Start() {
	p.sim.Every(p.cfg.StepPeriod, func(now float64) {
		p.cfg.Process.Step(p.cfg.StepPeriod)
		sensors := p.cfg.Process.Sensors()
		for _, sb := range p.cfg.Sensors {
			v := sensors[sb.SensorIndex]
			if sb.NoiseSigma > 0 {
				v += p.r.Normal(0, sb.NoiseSigma)
			}
			if err := sb.PLC.SetInput(sb.InputReg, v); err != nil {
				continue // out-of-range binding; validated at construction
			}
		}
		for _, plc := range p.cfg.PLCs {
			plc.Scan()
		}
		// Gather actuator commands indexed by command channel.
		maxIdx := -1
		for _, ab := range p.cfg.Actuators {
			if ab.CmdIndex > maxIdx {
				maxIdx = ab.CmdIndex
			}
		}
		if maxIdx >= 0 {
			cmds := make([]float64, maxIdx+1)
			for i := range cmds {
				cmds[i] = math.NaN() // NaN = leave unchanged
			}
			for _, ab := range p.cfg.Actuators {
				v, err := ab.PLC.Holding(ab.HoldingReg)
				if err != nil {
					continue
				}
				cmds[ab.CmdIndex] = v
			}
			p.cfg.Process.Actuate(cmds)
		}
	})

	if p.cfg.HMI != nil {
		p.sim.Every(p.cfg.PollPeriod, func(now float64) { p.cfg.HMI.Poll(now) })
	}
}
