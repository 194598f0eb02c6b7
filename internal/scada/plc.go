package scada

import (
	"fmt"
	"math"

	"diversify/internal/modbus"
)

// Fixed-point scale for register values: engineering value = raw / Scale.
// With Scale 10 a uint16 register spans 0..6553.5 at 0.1 resolution,
// enough for temperatures (°C) and rotor speeds (Hz).
const Scale = 10

// toRaw converts an engineering value to its register encoding.
func toRaw(v float64) uint16 {
	if math.IsNaN(v) || v <= 0 {
		return 0
	}
	r := math.Round(v * Scale)
	if r > math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(r)
}

// fromRaw converts a register encoding to its engineering value.
func fromRaw(r uint16) float64 { return float64(r) / Scale }

// PLC is a programmable logic controller: a Modbus register file plus a
// logic program executed once per scan cycle. Compromise hooks model the
// Stuxnet payload: InjectLogic replaces the program; StartReplay spoofs
// the values the HMI sees while the real process runs open-loop under the
// malicious logic.
type PLC struct {
	Name  string
	Model *modbus.MemoryModel

	program  Program
	holdingN int
	inputN   int
	coilN    int

	// Replay spoofing state: recorded input-register snapshots replayed
	// to supervisory reads.
	recording [][]uint16
	replayPos int
	replaying bool
}

// recordWindow bounds the replay recorder to the last recordWindow scans
// (the attacker's loop length).
const recordWindow = 256

// NewPLC builds a PLC with the given register bank sizes and validated
// program.
func NewPLC(name string, holdingN, inputN, coilN int, program Program) (*PLC, error) {
	if err := program.Validate(holdingN, inputN, coilN); err != nil {
		return nil, fmt.Errorf("plc %q: %w", name, err)
	}
	return &PLC{
		Name:     name,
		Model:    modbus.NewMemoryModel(holdingN, inputN, coilN, coilN),
		program:  program,
		holdingN: holdingN,
		inputN:   inputN,
		coilN:    coilN,
	}, nil
}

// regFile implementation over the Modbus memory model.

func (p *PLC) loadInput(reg int) float64 {
	resp := p.Model.Handle(modbus.PDU{Function: modbus.FuncReadInput, Data: modbus.ReadRequest(uint16(reg), 1)})
	if resp.IsException() {
		return 0
	}
	regs, err := modbus.BytesToRegisters(resp.Data)
	if err != nil || len(regs) == 0 {
		return 0
	}
	return fromRaw(regs[0])
}

func (p *PLC) loadHolding(reg int) float64 {
	v, err := p.Model.Holding(reg)
	if err != nil {
		return 0
	}
	return fromRaw(v)
}

func (p *PLC) storeHolding(reg int, v float64) {
	if err := p.Model.SetHolding(reg, toRaw(v)); err != nil {
		return // validated programs never hit this; raw writes are clamped
	}
}

func (p *PLC) storeCoil(reg int, on bool) {
	v := uint16(0x0000)
	if on {
		v = 0xFF00
	}
	p.Model.Handle(modbus.PDU{Function: modbus.FuncWriteSingleCoil,
		Data: modbus.WriteSingleRequest(uint16(reg), v)})
}

var _ regFile = (*PLC)(nil)

// SetInput feeds a scaled sensor value into an input register (the
// process side). While replay spoofing is active the live value still
// lands in the register — the PLC logic keeps seeing reality; only
// supervisory reads are spoofed.
func (p *PLC) SetInput(reg int, value float64) error {
	if err := p.Model.SetInput(reg, toRaw(value)); err != nil {
		return err
	}
	return nil
}

// Holding returns the engineering value of a holding register.
func (p *PLC) Holding(reg int) (float64, error) {
	v, err := p.Model.Holding(reg)
	if err != nil {
		return 0, err
	}
	return fromRaw(v), nil
}

// SetHolding stores an engineering value into a holding register
// (operator setpoint changes).
func (p *PLC) SetHolding(reg int, value float64) error {
	return p.Model.SetHolding(reg, toRaw(value))
}

// Scan executes one scan cycle: snapshot inputs for the replay recorder,
// then run the logic program.
func (p *PLC) Scan() {
	p.recordInputs()
	p.program.run(p)
}

// recordInputs maintains the rolling window the replay spoofer plays
// back.
func (p *PLC) recordInputs() {
	if p.replaying {
		return // freeze the recording once replay starts
	}
	snap := make([]uint16, p.inputN)
	for i := 0; i < p.inputN; i++ {
		resp := p.Model.Handle(modbus.PDU{Function: modbus.FuncReadInput,
			Data: modbus.ReadRequest(uint16(i), 1)})
		if resp.IsException() {
			continue
		}
		regs, err := modbus.BytesToRegisters(resp.Data)
		if err == nil && len(regs) == 1 {
			snap[i] = regs[0]
		}
	}
	p.recording = append(p.recording, snap)
	if len(p.recording) > recordWindow {
		p.recording = p.recording[len(p.recording)-recordWindow:]
	}
}

// InjectLogic replaces the control program (Stuxnet's PLC reprogramming).
// The malicious program must still be structurally valid for the banks.
func (p *PLC) InjectLogic(malicious Program) error {
	if err := malicious.Validate(p.holdingN, p.inputN, p.coilN); err != nil {
		return err
	}
	p.program = malicious
	return nil
}

// StartReplay begins spoofing supervisory reads with the recorded input
// history (requires at least one recorded scan).
func (p *PLC) StartReplay() error {
	if len(p.recording) == 0 {
		return fmt.Errorf("scada: plc %q has no recorded history to replay", p.Name)
	}
	p.replaying = true
	p.replayPos = 0
	return nil
}

// SupervisoryInput returns the input-register value as seen by the HMI:
// the live value normally, or the recorded loop while replay spoofing is
// active.
func (p *PLC) SupervisoryInput(reg int) (float64, error) {
	if reg < 0 || reg >= p.inputN {
		return 0, fmt.Errorf("scada: input register %d out of range", reg)
	}
	if p.replaying && len(p.recording) > 0 {
		snap := p.recording[p.replayPos%len(p.recording)]
		p.replayPos++
		return fromRaw(snap[reg]), nil
	}
	resp := p.Model.Handle(modbus.PDU{Function: modbus.FuncReadInput,
		Data: modbus.ReadRequest(uint16(reg), 1)})
	if resp.IsException() {
		return 0, fmt.Errorf("scada: read input %d failed", reg)
	}
	regs, err := modbus.BytesToRegisters(resp.Data)
	if err != nil {
		return 0, err
	}
	return fromRaw(regs[0]), nil
}
