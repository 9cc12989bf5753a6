// Package powersim is the physical substrate behind the synthesized
// SCADA traces: an aggregate power-grid frequency model, generator
// models with ramp limits and synchronisation sequences, loads with
// scriptable events (including the paper's "unmet load" incident), and
// an AGC controller that issues setpoint commands — the physical
// signals the paper extracts from the network with deep packet
// inspection (§6.4, Figs. 18-21).
//
// The model is intentionally coarse (a single-area swing equation with
// proportional damping): the paper's analyses consume the *shape* of
// the time series — nominal-vs-fluctuating voltages, frequency
// excursions answered by AGC commands, the 0→nominal voltage ramp and
// breaker closure of a generator coming online — not solver-grade
// dynamics.
package powersim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Defaults for a 60 Hz bulk system.
const (
	DefaultNominalFrequency = 60.0  // Hz
	DefaultNominalVoltage   = 130.0 // kV at the step-up transformer
)

// BreakerStatus mirrors IEC 104 double-point semantics: the paper's
// Fig. 20 shows the generator breaker moving from 0 (intermediate /
// open during ramp-up) to 2 (closed).
type BreakerStatus int

// Breaker states.
const (
	BreakerIntermediate BreakerStatus = 0
	BreakerOpen         BreakerStatus = 1
	BreakerClosed       BreakerStatus = 2
)

// Generator models one AGC-controllable unit.
type Generator struct {
	Name     string
	Capacity float64 // MW
	RampRate float64 // MW/s toward the setpoint

	Setpoint float64 // MW, written by AGC
	Output   float64 // MW produced (0 when offline)

	Online          bool
	Breaker         BreakerStatus
	TerminalVoltage float64 // kV, generator side
	GridVoltage     float64 // kV, transformer output side
	NominalVoltage  float64 // kV
	ReactivePower   float64 // MVAr
	Current         float64 // kA equivalent

	// Synchronisation sequence state (Fig. 20/21): voltage ramps from
	// zero to nominal, the breaker closes, then power flows.
	syncing   bool
	syncStart time.Time
	syncRamp  time.Duration
	// participation weights AGC dispatch; zero excludes the unit.
	participation float64
}

// Participating reports whether AGC steers this unit.
func (g *Generator) Participating() bool { return g.participation > 0 && g.Online }

// SetParticipation adjusts the unit's AGC dispatch weight; zero
// removes it from the control loop (self-dispatched units).
func (g *Generator) SetParticipation(w float64) { g.participation = w }

// Grid is the single-area system model.
type Grid struct {
	NominalFrequency float64
	Frequency        float64
	// Inertia converts MW imbalance into Hz/s (df/dt = imbalance/Inertia).
	Inertia float64
	// Damping pulls frequency toward nominal proportionally to the
	// deviation (load/frequency sensitivity).
	Damping float64

	BaseLoad float64 // MW
	loadBias float64 // scripted load deviations (unmet load events)

	Generators []*Generator

	now    time.Time
	rng    *rand.Rand
	events []scheduledEvent

	// noise magnitudes
	LoadNoise    float64
	VoltageNoise float64
}

// scheduledEvent is a scripted scenario entry.
type scheduledEvent struct {
	at    time.Time
	apply func(*Grid)
}

// NewGrid builds a grid starting at start with deterministic noise
// drawn from seed.
func NewGrid(start time.Time, seed int64) *Grid {
	return &Grid{
		NominalFrequency: DefaultNominalFrequency,
		Frequency:        DefaultNominalFrequency,
		Inertia:          8000, // MW per (Hz/s)
		Damping:          900,  // MW per Hz
		BaseLoad:         0,
		now:              start,
		rng:              rand.New(rand.NewSource(seed)),
		LoadNoise:        0.4,
		VoltageNoise:     0.15,
	}
}

// AddGenerator registers a unit. Online units start at their setpoint.
func (g *Grid) AddGenerator(name string, capacity, initialMW float64, online bool) *Generator {
	gen := &Generator{
		Name:           name,
		Capacity:       capacity,
		RampRate:       capacity / 300, // full range in five minutes
		Setpoint:       initialMW,
		NominalVoltage: DefaultNominalVoltage,
		participation:  capacity,
	}
	if online {
		gen.Online = true
		gen.Breaker = BreakerClosed
		gen.Output = initialMW
		gen.TerminalVoltage = gen.NominalVoltage * 0.97
		gen.GridVoltage = gen.NominalVoltage
	}
	g.Generators = append(g.Generators, gen)
	g.BaseLoad += initialMW
	return gen
}

// Generator looks a unit up by name.
func (g *Grid) Generator(name string) (*Generator, bool) {
	for _, gen := range g.Generators {
		if gen.Name == name {
			return gen, true
		}
	}
	return nil, false
}

// ScheduleLoadStep scripts a load change of delta MW at time at. A
// negative delta models the paper's unmet-load incident: lost load,
// surplus generation, rising frequency.
func (g *Grid) ScheduleLoadStep(at time.Time, delta float64) {
	g.events = append(g.events, scheduledEvent{at: at, apply: func(gr *Grid) {
		gr.loadBias += delta
	}})
	g.sortEvents()
}

// ScheduleGeneratorSync scripts the Fig. 20 sequence: starting at `at`
// the unit's terminal voltage ramps from zero to nominal over ramp;
// the breaker then closes and the unit begins delivering power toward
// targetMW.
func (g *Grid) ScheduleGeneratorSync(at time.Time, name string, ramp time.Duration, targetMW float64) error {
	gen, ok := g.Generator(name)
	if !ok {
		return fmt.Errorf("powersim: unknown generator %q", name)
	}
	g.events = append(g.events, scheduledEvent{at: at, apply: func(gr *Grid) {
		gen.syncing = true
		gen.syncStart = gr.now
		gen.syncRamp = ramp
		gen.Breaker = BreakerIntermediate
		gen.Setpoint = targetMW
	}})
	g.sortEvents()
	return nil
}

func (g *Grid) sortEvents() {
	sort.SliceStable(g.events, func(i, j int) bool { return g.events[i].at.Before(g.events[j].at) })
}

// Load returns the current system load in MW.
func (g *Grid) Load() float64 { return g.BaseLoad + g.loadBias }

// TotalGeneration sums online unit outputs.
func (g *Grid) TotalGeneration() float64 {
	var sum float64
	for _, gen := range g.Generators {
		if gen.Online {
			sum += gen.Output
		}
	}
	return sum
}

// AdvanceTo steps the simulation to t using fixed sub-steps.
func (g *Grid) AdvanceTo(t time.Time) {
	const dt = 500 * time.Millisecond
	for g.now.Before(t) {
		step := dt
		if rem := t.Sub(g.now); rem < dt {
			step = rem
		}
		g.step(step)
	}
}

func (g *Grid) step(dt time.Duration) {
	g.now = g.now.Add(dt)
	for len(g.events) > 0 && !g.events[0].at.After(g.now) {
		g.events[0].apply(g)
		g.events = g.events[1:]
	}
	sec := dt.Seconds()

	for _, gen := range g.Generators {
		g.stepGenerator(gen, sec)
	}

	load := g.Load() + g.rng.NormFloat64()*g.LoadNoise
	imbalance := g.TotalGeneration() - load
	df := (imbalance - g.Damping*(g.Frequency-g.NominalFrequency)) / g.Inertia
	g.Frequency += df * sec
}

func (g *Grid) stepGenerator(gen *Generator, sec float64) {
	if gen.syncing {
		elapsed := g.now.Sub(gen.syncStart)
		frac := float64(elapsed) / float64(gen.syncRamp)
		switch {
		case frac < 1:
			// Voltage ramp: terminal voltage rises toward nominal
			// while the breaker stays open and no power flows.
			gen.TerminalVoltage = gen.NominalVoltage * frac
			gen.GridVoltage = 0
			gen.Output = 0
		default:
			// Synchronised: close the breaker, start delivering.
			gen.syncing = false
			gen.Online = true
			gen.Breaker = BreakerClosed
			gen.TerminalVoltage = gen.NominalVoltage * 0.97
			gen.GridVoltage = gen.NominalVoltage
		}
		return
	}
	if !gen.Online {
		gen.Output = 0
		gen.TerminalVoltage = 0
		gen.GridVoltage = 0
		gen.ReactivePower = 0
		gen.Current = 0
		return
	}
	// Ramp output toward the setpoint.
	diff := gen.Setpoint - gen.Output
	maxStep := gen.RampRate * sec
	if diff > maxStep {
		diff = maxStep
	}
	if diff < -maxStep {
		diff = -maxStep
	}
	gen.Output += diff
	if gen.Output < 0 {
		gen.Output = 0
	}
	if gen.Output > gen.Capacity {
		gen.Output = gen.Capacity
	}
	// Voltages hover near nominal with small noise; reactive power
	// follows voltage support needs (can be negative).
	gen.GridVoltage = gen.NominalVoltage + g.rng.NormFloat64()*g.VoltageNoise
	gen.TerminalVoltage = gen.GridVoltage * 0.97
	gen.ReactivePower = 0.15*gen.Output + g.rng.NormFloat64()*0.5
	if gen.GridVoltage > 0 {
		gen.Current = gen.Output / (gen.GridVoltage * math.Sqrt(3) / 1000)
	}
}
