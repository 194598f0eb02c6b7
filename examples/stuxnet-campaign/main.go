// Stuxnet deep dive: the full kill chain on a centrifuge cascade,
// reproduced at the physics level.
//
// A PLC runs legitimate speed-control logic that clamps rotor commands to
// the safe ceiling. The attack (1) records healthy sensor readings,
// (2) starts replaying them to the supervisory layer, (3) injects logic
// that drives the rotors through 1410 Hz / 2 Hz torture cycles — exactly
// the sequence described in the W32.Stuxnet dossier. The HMI sees
// nominal speeds while the cascade destroys itself.
//
//	go run ./examples/stuxnet-campaign
package main

import (
	"fmt"
	"log"

	"diversify/internal/des"
	"diversify/internal/physics"
	"diversify/internal/rng"
	"diversify/internal/scada"
)

func main() {
	sim := des.NewSim()
	cfg := physics.DefaultCentrifugeConfig()
	cascade, err := physics.NewCentrifugeCascade(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Registers: holding 0..5 = operator speed setpoints, 6..11 = drive
	// commands; inputs 0..5 = measured rotor speeds.
	setRegs := []int{0, 1, 2, 3, 4, 5}
	cmdRegs := []int{6, 7, 8, 9, 10, 11}
	plc, err := scada.NewPLC("cascade-plc", 12, 6, 1,
		scada.SpeedControl(setRegs, cmdRegs, cfg.MaxSafeHz))
	if err != nil {
		log.Fatal(err)
	}
	for _, reg := range setRegs {
		if err := plc.SetHolding(reg, cfg.NominalHz); err != nil {
			log.Fatal(err)
		}
	}
	var sensors []scada.SensorBinding
	var acts []scada.ActuatorBinding
	var watches []scada.AlarmWatch
	for u := 0; u < cfg.Units; u++ {
		sensors = append(sensors, scada.SensorBinding{SensorIndex: u, PLC: plc, InputReg: u, NoiseSigma: 0.5})
		acts = append(acts, scada.ActuatorBinding{PLC: plc, HoldingReg: cmdRegs[u], CmdIndex: u})
		watches = append(watches, scada.AlarmWatch{
			Name: fmt.Sprintf("rotor-%d-speed", u), PLC: plc, InputReg: u,
			Min: cfg.NominalHz - 80, Max: cfg.NominalHz + 80,
		})
	}
	hmi := scada.NewHMI(watches)
	plant, err := scada.NewPlant(sim, rng.New(1), scada.PlantConfig{
		Process: cascade, PLCs: []*scada.PLC{plc},
		Sensors: sensors, Actuators: acts,
		HMI: hmi, StepPeriod: 0.01, PollPeriod: 0.05,
	})
	if err != nil {
		log.Fatal(err)
	}
	plant.Start()

	// Kill chain: at t=24h the implant starts spoofing, then injects the
	// torture-cycle logic. The malicious program alternates between
	// overspeed and resonance-crawl every scan window, so we model it by
	// re-injecting alternating constant outputs.
	report := func(tag string) {
		speeds := cascade.Sensors()
		fmt.Printf("%-26s t=%6.1fh  rotor0=%7.1fHz  damage=%5.1f%%  broken=%d  alarms=%d\n",
			tag, sim.Now(), speeds[0], 100*cascade.Damage(), cascade.Broken(), len(hmi.Alarms()))
	}
	sim.SchedulePayload(24, func(des.Payload) {
		if err := plc.StartReplay(); err != nil {
			log.Fatal(err)
		}
		report("replay spoofing engaged")
	}, des.Payload{})
	inject := func(value float64, tag string) func(des.Payload) {
		return func(des.Payload) {
			if err := plc.InjectLogic(scada.ConstantOutput(cmdRegs, value)); err != nil {
				log.Fatal(err)
			}
			report(tag)
		}
	}
	// Alternate overspeed / crawl for five cycles, 4h apart.
	t := 25.0
	for cycle := 0; cycle < 5; cycle++ {
		sim.SchedulePayload(t, inject(1410, "payload: overspeed 1410Hz"), des.Payload{})
		sim.SchedulePayload(t+2, inject(2, "payload: crawl 2Hz"), des.Payload{})
		t += 4
	}
	if err := sim.Run(60); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	report("final state")
	if _, fired := hmi.FirstAlarmTime(); !fired {
		fmt.Println("the HMI never alarmed: replayed sensor data showed nominal 1064 Hz throughout,")
		fmt.Printf("yet %d of %d rotors were destroyed — the Stuxnet signature.\n",
			cascade.Broken(), cfg.Units)
	} else {
		at, _ := hmi.FirstAlarmTime()
		fmt.Printf("HMI alarmed at t=%.1fh\n", at)
	}
}
