// Command agcsim runs the power-system substrate by itself and prints
// the physical time series behind Figs. 18-20 as CSV: system frequency,
// per-generator output, voltages, breaker state and the AGC setpoint
// commands — handy for plotting the scenarios without the network
// layer.
//
// Usage:
//
//	agcsim -duration 10m -gens 4 -unmet-load 5m > series.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"uncharted/internal/obs"
	"uncharted/internal/powersim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("agcsim: ")

	duration := flag.Duration("duration", 10*time.Minute, "simulated time")
	step := flag.Duration("step", time.Second, "sample interval")
	gens := flag.Int("gens", 4, "number of generators")
	seed := flag.Int64("seed", 1, "noise seed")
	unmetLoad := flag.Duration("unmet-load", 4*time.Minute, "when to drop 12% of load (0 = never)")
	reconnect := flag.Duration("reconnect", 6*time.Minute, "when the lost load returns (0 = never)")
	syncAt := flag.Duration("sync", 2*time.Minute, "when the last generator synchronises (0 = never)")
	metrics := flag.String("metrics", "", "serve Prometheus /metrics and /debug/vars on this address")
	pace := flag.Duration("pace", 0, "wall-clock delay per sample (use with -metrics to watch the run live)")
	flag.Parse()

	reg := obs.Default
	reg.SetHelp("uncharted_agcsim_frequency_hz", "Current simulated system frequency.")
	reg.SetHelp("uncharted_agcsim_load_mw", "Current simulated system load.")
	reg.SetHelp("uncharted_agcsim_generation_mw", "Current total generation output.")
	reg.SetHelp("uncharted_agcsim_agc_commands_total", "Setpoint commands issued by the AGC loop.")
	reg.SetHelp("uncharted_agcsim_frequency_deviation_hz", "Absolute frequency deviation from nominal, per sample.")
	var (
		freqGauge = reg.Gauge("uncharted_agcsim_frequency_hz")
		loadGauge = reg.Gauge("uncharted_agcsim_load_mw")
		genGauge  = reg.Gauge("uncharted_agcsim_generation_mw")
		cmdTotal  = reg.Counter("uncharted_agcsim_agc_commands_total")
		freqDev   = reg.Histogram("uncharted_agcsim_frequency_deviation_hz",
			[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1})
	)
	if *metrics != "" {
		bound, stop, err := obs.ServeWith(*metrics, reg, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		log.Printf("metrics on http://%s/metrics", bound)
	}

	start := time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC)
	grid := powersim.NewGrid(start, *seed)
	agc := powersim.NewAGC(grid)

	for i := 0; i < *gens; i++ {
		name := fmt.Sprintf("G%d", i+1)
		capacity := 120 + float64(i)*60
		online := true
		initial := capacity * 0.55
		if *syncAt > 0 && i == *gens-1 {
			online = false
			initial = 0
		}
		grid.AddGenerator(name, capacity, initial, online)
	}
	if *syncAt > 0 {
		last := fmt.Sprintf("G%d", *gens)
		if err := grid.ScheduleGeneratorSync(start.Add(*syncAt), last, 2*time.Minute, 70); err != nil {
			log.Fatal(err)
		}
	}
	if *unmetLoad > 0 {
		grid.ScheduleLoadStep(start.Add(*unmetLoad), -0.12*grid.BaseLoad)
		if *reconnect > *unmetLoad {
			grid.ScheduleLoadStep(start.Add(*reconnect), 0.12*grid.BaseLoad)
		}
	}

	w := os.Stdout
	fmt.Fprint(w, "t_seconds,frequency_hz,load_mw,total_gen_mw")
	for _, g := range grid.Generators {
		fmt.Fprintf(w, ",%s_mw,%s_setpoint_mw,%s_ugrid_kv,%s_uterm_kv,%s_breaker",
			g.Name, g.Name, g.Name, g.Name, g.Name)
	}
	fmt.Fprintln(w, ",agc_commands")

	commands := 0
	for ts := start; !ts.After(start.Add(*duration)); ts = ts.Add(*step) {
		grid.AdvanceTo(ts)
		issued := len(agc.Run(ts))
		commands += issued
		cmdTotal.Add(int64(issued))
		freqGauge.Set(grid.Frequency)
		loadGauge.Set(grid.Load())
		genGauge.Set(grid.TotalGeneration())
		freqDev.Observe(absFloat(grid.Frequency - 60))
		if *pace > 0 {
			time.Sleep(*pace)
		}
		fmt.Fprintf(w, "%.0f,%.5f,%.2f,%.2f",
			ts.Sub(start).Seconds(), grid.Frequency, grid.Load(), grid.TotalGeneration())
		for _, g := range grid.Generators {
			fmt.Fprintf(w, ",%.2f,%.2f,%.2f,%.2f,%d",
				g.Output, g.Setpoint, g.GridVoltage, g.TerminalVoltage, int(g.Breaker))
		}
		fmt.Fprintf(w, ",%d\n", commands)
	}
	log.Printf("simulated %v, %d AGC commands", *duration, commands)
}

func absFloat(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
