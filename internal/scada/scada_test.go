package scada

import (
	"errors"
	"math"
	"slices"
	"testing"

	"diversify/internal/des"
	"diversify/internal/physics"
	"diversify/internal/rng"
)

func TestProgramValidate(t *testing.T) {
	good := Program{
		{Op: OpLoad, Arg: Input(0)},
		{Op: OpGt, Arg: Holding(1)},
		{Op: OpStoreC, Target: 0},
	}
	if err := good.Validate(2, 2, 2); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    Program
	}{
		{"input out of range", Program{{Op: OpLoad, Arg: Input(5)}}},
		{"holding out of range", Program{{Op: OpLoad, Arg: Holding(5)}}},
		{"store holding out of range", Program{{Op: OpStoreH, Target: 9}}},
		{"store coil out of range", Program{{Op: OpStoreC, Target: 9}}},
		{"bad opcode", Program{{Op: Op(99)}}},
		{"bad operand kind", Program{{Op: OpLoad, Arg: Operand{Kind: SrcKind(9)}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.p.Validate(2, 2, 2); !errors.Is(err, ErrBadProgram) {
				t.Fatalf("err = %v", err)
			}
		})
	}
}

// fakeRegs is a plain in-memory regFile for VM unit tests.
type fakeRegs struct {
	inputs, holdings []float64
	coils            []bool
}

func (f *fakeRegs) loadInput(r int) float64       { return f.inputs[r] }
func (f *fakeRegs) loadHolding(r int) float64     { return f.holdings[r] }
func (f *fakeRegs) storeHolding(r int, v float64) { f.holdings[r] = v }
func (f *fakeRegs) storeCoil(r int, on bool)      { f.coils[r] = on }

func TestVMArithmetic(t *testing.T) {
	f := &fakeRegs{inputs: []float64{30}, holdings: make([]float64, 4), coils: make([]bool, 2)}
	p := Program{
		{Op: OpLoad, Arg: Input(0)},  // 30
		{Op: OpSub, Arg: Const(25)},  // 5
		{Op: OpMul, Arg: Const(0.2)}, // 1.0
		{Op: OpClamp01},              // 1.0
		{Op: OpStoreH, Target: 0},    // holdings[0] = 1
		{Op: OpLoad, Arg: Const(10)}, // 10
		{Op: OpDiv, Arg: Const(4)},   // 2.5
		{Op: OpStoreH, Target: 1},    // holdings[1] = 2.5
		{Op: OpLoad, Arg: Const(1)},  // 1
		{Op: OpDiv, Arg: Const(0)},   // division by zero → 0
		{Op: OpStoreH, Target: 2},    // holdings[2] = 0
		{Op: OpLoad, Arg: Const(7)},  //
		{Op: OpMin, Arg: Const(5)},   // 5
		{Op: OpMax, Arg: Const(6)},   // 6
		{Op: OpStoreH, Target: 3},    // holdings[3] = 6
		{Op: OpLoad, Arg: Const(0)},  //
		{Op: OpNot},                  // 1
		{Op: OpStoreC, Target: 0},    // coil true
		{Op: OpLoad, Arg: Const(1)},  //
		{Op: OpAnd, Arg: Const(0)},   // 0
		{Op: OpStoreC, Target: 1},    // coil false
	}
	p.run(f)
	want := []float64{1, 2.5, 0, 6}
	for i, w := range want {
		if math.Abs(f.holdings[i]-w) > 1e-12 {
			t.Errorf("holdings[%d] = %v, want %v", i, f.holdings[i], w)
		}
	}
	if !f.coils[0] || f.coils[1] {
		t.Errorf("coils = %v, want [true false]", f.coils)
	}
}

func TestVMComparisons(t *testing.T) {
	f := &fakeRegs{inputs: []float64{10}, holdings: make([]float64, 2), coils: make([]bool, 1)}
	p := Program{
		{Op: OpLoad, Arg: Input(0)},
		{Op: OpGt, Arg: Const(5)}, // 1
		{Op: OpStoreH, Target: 0},
		{Op: OpLoad, Arg: Input(0)},
		{Op: OpLt, Arg: Const(5)}, // 0
		{Op: OpOr, Arg: Const(0)}, // 0
		{Op: OpStoreH, Target: 1},
	}
	p.run(f)
	if f.holdings[0] != 1 || f.holdings[1] != 0 {
		t.Fatalf("holdings = %v", f.holdings)
	}
}

func TestRawConversions(t *testing.T) {
	if toRaw(-5) != 0 || toRaw(math.NaN()) != 0 {
		t.Fatal("negative/NaN should clamp to 0")
	}
	if toRaw(1e9) != math.MaxUint16 {
		t.Fatal("overflow should clamp to MaxUint16")
	}
	if got := fromRaw(toRaw(123.4)); math.Abs(got-123.4) > 0.05 {
		t.Fatalf("round trip 123.4 → %v", got)
	}
}

func TestPLCScanThermostat(t *testing.T) {
	// Proportional cooling: cmd = clamp01(0.2 * (T − setpoint)).
	prog := ProportionalCooling([]int{0}, []int{0}, []int{1}, 0.2)
	plc, err := NewPLC("plc-0", 4, 4, 2, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := plc.SetHolding(0, 30); err != nil { // setpoint 30°C
		t.Fatal(err)
	}
	if err := plc.SetInput(0, 33); err != nil { // temp 33°C
		t.Fatal(err)
	}
	plc.Scan()
	cmd, err := plc.Holding(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmd-0.6) > 0.05 {
		t.Fatalf("cooling cmd = %v, want ~0.6", cmd)
	}
	// Cooler than setpoint → command 0.
	if err := plc.SetInput(0, 20); err != nil {
		t.Fatal(err)
	}
	plc.Scan()
	cmd, err = plc.Holding(1)
	if err != nil {
		t.Fatal(err)
	}
	if cmd != 0 {
		t.Fatalf("cooling cmd = %v, want 0", cmd)
	}
}

func TestPLCInvalidProgramRejected(t *testing.T) {
	if _, err := NewPLC("bad", 1, 1, 1, Program{{Op: OpStoreH, Target: 9}}); !errors.Is(err, ErrBadProgram) {
		t.Fatalf("err = %v", err)
	}
}

func TestInjectLogic(t *testing.T) {
	plc, err := NewPLC("victim", 4, 4, 2, ProportionalCooling([]int{0}, []int{0}, []int{1}, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	// Malicious logic: force cooling command to zero regardless of temp.
	if err := plc.InjectLogic(ConstantOutput([]int{1}, 0)); err != nil {
		t.Fatal(err)
	}
	if err := plc.SetInput(0, 50); err != nil { // very hot
		t.Fatal(err)
	}
	if err := plc.SetHolding(0, 30); err != nil {
		t.Fatal(err)
	}
	plc.Scan()
	cmd, err := plc.Holding(1)
	if err != nil {
		t.Fatal(err)
	}
	if cmd != 0 {
		t.Fatalf("malicious logic did not suppress cooling: cmd=%v", cmd)
	}
	// Injecting structurally invalid logic is refused.
	if err := plc.InjectLogic(Program{{Op: OpStoreH, Target: 99}}); err == nil {
		t.Fatal("invalid malicious program accepted")
	}
}

func TestReplaySpoofing(t *testing.T) {
	plc, err := NewPLC("victim", 2, 2, 1, Program{})
	if err != nil {
		t.Fatal(err)
	}
	// Record some healthy scans at 25°C.
	if err := plc.SetInput(0, 25); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		plc.Scan()
	}
	// Replay must fail before any recording exists on a fresh PLC.
	fresh, err := NewPLC("fresh", 1, 1, 1, Program{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.StartReplay(); err == nil {
		t.Fatal("replay started with empty recording")
	}
	// Start spoofing, then drive the real temperature up.
	if err := plc.StartReplay(); err != nil {
		t.Fatal(err)
	}
	if err := plc.SetInput(0, 70); err != nil {
		t.Fatal(err)
	}
	plc.Scan()
	// The supervisory view replays 25°C...
	seen, err := plc.SupervisoryInput(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seen-25) > 0.2 {
		t.Fatalf("HMI sees %v, want spoofed 25", seen)
	}
	// ...while the logic-side view sees reality.
	if live := plc.loadInput(0); math.Abs(live-70) > 0.2 {
		t.Fatalf("PLC logic sees %v, want live 70", live)
	}
}

func TestSupervisoryInputRange(t *testing.T) {
	plc, err := NewPLC("p", 1, 1, 1, Program{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plc.SupervisoryInput(5); err == nil {
		t.Fatal("out-of-range supervisory read accepted")
	}
}

// buildCoolingPlant assembles the full closed loop: cooling process, one
// PLC running proportional control on every zone, HMI watching zone 0.
func buildCoolingPlant(t *testing.T, sabotage bool) (*des.Sim, *physics.CoolingPlant, *PLC, *HMI) {
	t.Helper()
	sim := des.NewSim()
	proc, err := physics.NewCoolingPlant(physics.DefaultCoolingConfig())
	if err != nil {
		t.Fatal(err)
	}
	zones := 4
	tempRegs := []int{0, 1, 2, 3}
	setRegs := []int{0, 1, 2, 3}
	cmdRegs := []int{4, 5, 6, 7}
	plc, err := NewPLC("cool-plc", 8, 4, 1, ProportionalCooling(tempRegs, setRegs, cmdRegs, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < zones; z++ {
		if err := plc.SetHolding(setRegs[z], 30); err != nil {
			t.Fatal(err)
		}
	}
	var sensors []SensorBinding
	var acts []ActuatorBinding
	for z := 0; z < zones; z++ {
		sensors = append(sensors, SensorBinding{SensorIndex: z, PLC: plc, InputReg: tempRegs[z]})
		acts = append(acts, ActuatorBinding{PLC: plc, HoldingReg: cmdRegs[z], CmdIndex: z})
	}
	hmi := NewHMI([]AlarmWatch{{Name: "zone0-temp", PLC: plc, InputReg: 0, Min: 0, Max: 38}})
	plant, err := NewPlant(sim, rng.New(1), PlantConfig{
		Process:    proc,
		PLCs:       []*PLC{plc},
		Sensors:    sensors,
		Actuators:  acts,
		HMI:        hmi,
		StepPeriod: 0.05,
		PollPeriod: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	plant.Start()
	if sabotage {
		// At t=5h the attacker injects cooling-off logic.
		sim.SchedulePayload(5, func(des.Payload) {
			if err := plc.InjectLogic(ConstantOutput(cmdRegs, 0)); err != nil {
				t.Errorf("inject: %v", err)
			}
		}, des.Payload{})
	}
	return sim, proc, plc, hmi
}

func TestClosedLoopKeepsPlantHealthy(t *testing.T) {
	sim, proc, _, hmi := buildCoolingPlant(t, false)
	if err := sim.Run(48); err != nil {
		t.Fatal(err)
	}
	if !proc.Healthy() {
		t.Fatalf("plant unhealthy under control: temps=%v damage=%v", proc.Sensors(), proc.Damage())
	}
	if _, fired := hmi.FirstAlarmTime(); fired {
		t.Fatalf("false alarms under normal operation: %+v", hmi.Alarms())
	}
}

func TestSabotageOverheatsAndAlarms(t *testing.T) {
	sim, proc, _, hmi := buildCoolingPlant(t, true)
	if err := sim.Run(48); err != nil {
		t.Fatal(err)
	}
	if proc.Healthy() {
		t.Fatalf("sabotaged plant still healthy: temps=%v", proc.Sensors())
	}
	at, fired := hmi.FirstAlarmTime()
	if !fired {
		t.Fatal("no alarm despite overheating")
	}
	if at < 5 {
		t.Fatalf("alarm before the attack started: %v", at)
	}
}

func TestSabotageWithReplaySuppressesAlarms(t *testing.T) {
	sim, proc, plc, hmi := buildCoolingPlant(t, false)
	// Attack at t=5: record/replay first, then logic injection — the HMI
	// keeps seeing healthy values.
	sim.SchedulePayload(5, func(des.Payload) {
		if err := plc.StartReplay(); err != nil {
			t.Errorf("replay: %v", err)
		}
		if err := plc.InjectLogic(ConstantOutput([]int{4, 5, 6, 7}, 0)); err != nil {
			t.Errorf("inject: %v", err)
		}
	}, des.Payload{})
	if err := sim.Run(48); err != nil {
		t.Fatal(err)
	}
	if proc.Healthy() {
		t.Fatal("plant survived the spoofed attack")
	}
	if _, fired := hmi.FirstAlarmTime(); fired {
		t.Fatalf("alarm fired despite replay spoofing: %+v", hmi.Alarms())
	}
}

// ramp is a one-sensor process whose reading climbs by one per step.
type ramp struct{ v float64 }

func (r *ramp) Step(float64)       { r.v++ }
func (r *ramp) Sensors() []float64 { return []float64{r.v} }
func (r *ramp) Actuate([]float64)  {}
func (r *ramp) Damage() float64    { return 0 }
func (r *ramp) Healthy() bool      { return true }

// While replay spoofing is on, the HMI is the plant's only supervisory
// reader: its successive polls walk the recorded loop in order, one
// snapshot per poll, wrapping at the end of the recording.
func TestReplayWalksRecordedLoopPerPoll(t *testing.T) {
	sim := des.NewSim()
	plc, err := NewPLC("ramp-plc", 1, 1, 1, Program{})
	if err != nil {
		t.Fatal(err)
	}
	// A band no reading satisfies, so every poll logs the value it saw.
	hmi := NewHMI([]AlarmWatch{{Name: "ramp", PLC: plc, InputReg: 0, Min: 0, Max: 0}})
	plant, err := NewPlant(sim, rng.New(1), PlantConfig{
		Process:    &ramp{},
		PLCs:       []*PLC{plc},
		Sensors:    []SensorBinding{{SensorIndex: 0, PLC: plc, InputReg: 0}},
		HMI:        hmi,
		StepPeriod: 1,
		PollPeriod: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	plant.Start()
	// Scans at t=1..4 record the readings 1..4; replay starts before the
	// next one.
	const replayAt = 4.5
	sim.SchedulePayload(replayAt, func(des.Payload) {
		if err := plc.StartReplay(); err != nil {
			t.Errorf("replay: %v", err)
		}
	}, des.Payload{})
	if err := sim.Run(12.5); err != nil {
		t.Fatal(err)
	}
	var seen []float64
	for _, a := range hmi.Alarms() {
		if a.Time > replayAt {
			seen = append(seen, a.Value)
		}
	}
	want := []float64{1, 2, 3, 4, 1, 2, 3, 4}
	if !slices.Equal(seen, want) {
		t.Fatalf("HMI polls under replay saw %v, want %v", seen, want)
	}
}

func TestPlantValidation(t *testing.T) {
	sim := des.NewSim()
	proc, err := physics.NewCoolingPlant(physics.DefaultCoolingConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlant(sim, rng.New(1), PlantConfig{Process: nil, StepPeriod: 1, PollPeriod: 1}); err == nil {
		t.Fatal("nil process accepted")
	}
	if _, err := NewPlant(sim, rng.New(1), PlantConfig{Process: proc, StepPeriod: 0, PollPeriod: 1}); err == nil {
		t.Fatal("zero step period accepted")
	}
	if _, err := NewPlant(sim, rng.New(1), PlantConfig{
		Process: proc, StepPeriod: 1, PollPeriod: 1,
		Sensors: []SensorBinding{{SensorIndex: 99}},
	}); err == nil {
		t.Fatal("bad sensor index accepted")
	}
}

func TestSpeedControlProgram(t *testing.T) {
	prog := SpeedControl([]int{0}, []int{1}, 1150)
	plc, err := NewPLC("drive", 2, 1, 1, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := plc.SetHolding(0, 1064); err != nil {
		t.Fatal(err)
	}
	plc.Scan()
	v, err := plc.Holding(1)
	if err != nil || math.Abs(v-1064) > 0.2 {
		t.Fatalf("cmd = %v err=%v", v, err)
	}
	// The legitimate logic clamps overspeed requests...
	if err := plc.SetHolding(0, 1410); err != nil {
		t.Fatal(err)
	}
	plc.Scan()
	v, err = plc.Holding(1)
	if err != nil || math.Abs(v-1150) > 0.2 {
		t.Fatalf("clamped cmd = %v, want 1150", v)
	}
	// ...which is exactly why Stuxnet must replace the logic.
	if err := plc.InjectLogic(ConstantOutput([]int{1}, 1410)); err != nil {
		t.Fatal(err)
	}
	plc.Scan()
	v, err = plc.Holding(1)
	if err != nil || math.Abs(v-1410) > 0.2 {
		t.Fatalf("malicious cmd = %v, want 1410", v)
	}
}

func BenchmarkPLCScan(b *testing.B) {
	plc, err := NewPLC("bench", 8, 4, 1,
		ProportionalCooling([]int{0, 1, 2, 3}, []int{0, 1, 2, 3}, []int{4, 5, 6, 7}, 0.5))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := plc.SetInput(i, 33); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plc.Scan()
	}
}

func BenchmarkClosedLoopHour(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := des.NewSim()
		proc, err := physics.NewCoolingPlant(physics.DefaultCoolingConfig())
		if err != nil {
			b.Fatal(err)
		}
		plc, err := NewPLC("p", 8, 4, 1,
			ProportionalCooling([]int{0, 1, 2, 3}, []int{0, 1, 2, 3}, []int{4, 5, 6, 7}, 0.5))
		if err != nil {
			b.Fatal(err)
		}
		plant, err := NewPlant(sim, rng.New(uint64(i)), PlantConfig{
			Process: proc, PLCs: []*PLC{plc},
			Sensors:    []SensorBinding{{SensorIndex: 0, PLC: plc, InputReg: 0}},
			Actuators:  []ActuatorBinding{{PLC: plc, HoldingReg: 4, CmdIndex: 0}},
			StepPeriod: 0.05, PollPeriod: 0.1,
		})
		if err != nil {
			b.Fatal(err)
		}
		plant.Start()
		if err := sim.Run(1); err != nil {
			b.Fatal(err)
		}
	}
}
