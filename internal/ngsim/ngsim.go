// Package ngsim generates the synthetic stand-in for the paper's REAL
// dataset (NGSIM US-101 merged with I-80): trajectories of conventional
// vehicles on a 1.14 km six-lane highway segment. Since the real NGSIM
// recordings are not available offline, the generator runs the
// heterogeneous-IDM traffic simulator and adds measurement noise, then
// applies the paper's preprocessing — picking an ego vehicle as the
// reference "autonomous vehicle", applying the sensor limits, running
// phantom construction, and pairing each z-step spatial-temporal graph
// with the one-step ground-truth future states of the six targets.
package ngsim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"head/internal/phantom"
	"head/internal/sensor"
	"head/internal/traffic"
	"head/internal/world"
)

// Sample is one supervised example for the state prediction task: the
// spatial-temporal graph at time t and the ground-truth relative future
// state [d_lat, d_lon, v_rel] of each target at t+1 (relative to the ego at
// t, as in Equation (13)). Masked targets are constructed phantoms whose
// loss the paper masks out.
type Sample struct {
	Graph *phantom.Graph
	Truth [phantom.NumSlots][3]float64
	Mask  [phantom.NumSlots]bool // true = phantom, exclude from loss/metrics

	// TruthK/MaskK optionally extend the supervision to horizons 2..K
	// (TruthK[h-2] is the truth at t+h, still relative to the ego at t)
	// when Config.Horizon > 1. Used by the multi-step accuracy-decay
	// analysis; the models themselves train on the one-step Truth.
	TruthK [][phantom.NumSlots][3]float64
	MaskK  [][phantom.NumSlots]bool
}

// Dataset is an ordered collection of samples.
type Dataset struct{ Samples []*Sample }

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Split partitions the dataset into train and test sets with the given
// train ratio (the paper uses 4:1, i.e. ratio 0.8), preserving order. Each
// half has its own backing array, so a caller that keeps one half keeps
// only that half's samples alive.
func (d *Dataset) Split(trainRatio float64) (train, test *Dataset) {
	n := int(float64(len(d.Samples)) * trainRatio)
	if n < 0 {
		n = 0
	}
	if n > len(d.Samples) {
		n = len(d.Samples)
	}
	return &Dataset{Samples: slices.Clone(d.Samples[:n])}, &Dataset{Samples: slices.Clone(d.Samples[n:])}
}

// Shuffle permutes the samples using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.Samples), func(i, j int) {
		d.Samples[i], d.Samples[j] = d.Samples[j], d.Samples[i]
	})
}

// Config controls dataset generation.
type Config struct {
	Traffic traffic.Config
	Sensor  sensor.Config
	// Rollouts is the number of independent traffic simulations.
	Rollouts int
	// StepsPerRollout is the number of simulated steps per rollout.
	StepsPerRollout int
	// EgosPerStep is how many ego perspectives are sampled per step.
	EgosPerStep int
	// WarmupSteps are simulated before sampling begins, letting the IDM
	// traffic relax from its synthetic initial conditions.
	WarmupSteps int
	// NoiseLon and NoiseV are the standard deviations of the Gaussian
	// measurement noise added to observed positions and velocities,
	// mimicking NGSIM's tracking noise.
	NoiseLon, NoiseV float64
	// Horizon is the number of future steps with recorded ground truth
	// (≥ 1). Horizons beyond 1 populate Sample.TruthK for multi-step
	// error analysis.
	Horizon int
}

// DefaultConfig returns the REAL-substitute settings: the paper's 1.14 km
// six-lane segment at congested, NGSIM-like density (US-101 and I-80 were
// recorded in peak-period stop-and-go traffic, which is also the regime
// where vehicle interactions carry predictive signal).
func DefaultConfig() Config {
	tc := traffic.DefaultConfig()
	tc.World.RoadLength = 1140
	tc.Density = 300
	return Config{
		Traffic:         tc,
		Sensor:          sensor.DefaultConfig(),
		Rollouts:        4,
		StepsPerRollout: 40,
		EgosPerStep:     4,
		WarmupSteps:     30,
		NoiseLon:        0.2,
		NoiseV:          0.1,
	}
}

// snapshot is the global state of every conventional vehicle at one step.
type snapshot struct {
	states map[int]world.State
}

// Generate runs the simulator and produces prediction samples.
func Generate(cfg Config, rng *rand.Rand) (*Dataset, error) {
	if cfg.Rollouts <= 0 || cfg.StepsPerRollout <= 0 {
		return nil, fmt.Errorf("ngsim: Rollouts and StepsPerRollout must be positive")
	}
	if cfg.Horizon < 1 {
		cfg.Horizon = 1
	}
	z := cfg.Sensor.Z
	window := z + cfg.Horizon
	builder := phantom.NewBuilder(phantom.Config{
		Lanes:     cfg.Traffic.World.Lanes,
		LaneWidth: cfg.Traffic.World.LaneWidth,
		R:         cfg.Sensor.R,
		Dt:        cfg.Traffic.World.Dt,
	})
	ds := &Dataset{}
	for r := 0; r < cfg.Rollouts; r++ {
		sim, err := traffic.New(cfg.Traffic, rng)
		if err != nil {
			return nil, err
		}
		// The ego perspectives come from conventional vehicles; park the
		// controlled AV far off the segment so it does not participate.
		sim.AV.State = world.State{Lat: 1, Lon: -1e6, V: cfg.Traffic.World.VMin}
		var history []snapshot
		for step := 0; step < cfg.WarmupSteps+cfg.StepsPerRollout+cfg.Horizon; step++ {
			sim.Step(world.Maneuver{B: world.LaneKeep, A: 0})
			history = append(history, snap(sim))
			if len(history) > window {
				history = history[len(history)-window:]
			}
			if step < cfg.WarmupSteps || len(history) < window {
				continue
			}
			// history holds frames for steps t-z+1..t+1 (z+1 snapshots);
			// the sample time t is history[z-1].
			ids := vehicleIDs(history[z-1])
			for e := 0; e < cfg.EgosPerStep && len(ids) > 0; e++ {
				egoID := ids[rng.Intn(len(ids))]
				s := buildSample(builder, cfg, history, egoID, rng)
				if s != nil {
					ds.Samples = append(ds.Samples, s)
				}
			}
		}
	}
	return ds, nil
}

// snap captures the conventional-vehicle states of the simulation.
func snap(sim *traffic.Sim) snapshot {
	s := snapshot{states: make(map[int]world.State, len(sim.Vehicles))}
	for _, v := range sim.Vehicles {
		s.states[v.ID] = v.State
	}
	return s
}

// vehicleIDs lists the vehicles present in a snapshot in ID order, so the
// generator is deterministic for a fixed seed.
func vehicleIDs(s snapshot) []int {
	ids := make([]int, 0, len(s.states))
	for id := range s.states {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// buildSample reconstructs the ego's z-frame sensor history from the
// global snapshots, runs phantom construction, and attaches ground truth.
// It returns nil when the ego disappears inside the window.
func buildSample(builder *phantom.Builder, cfg Config, history []snapshot, egoID int, rng *rand.Rand) *Sample {
	z := cfg.Sensor.Z
	sens := sensor.New(cfg.Sensor, cfg.Traffic.World.LaneWidth)
	for t := 0; t < z; t++ {
		egoState, ok := history[t].states[egoID]
		if !ok {
			return nil
		}
		others := make([]*traffic.Vehicle, 0, len(history[t].states)-1)
		for _, id := range vehicleIDs(history[t]) {
			if id == egoID {
				continue
			}
			noisy := history[t].states[id]
			noisy.Lon += rng.NormFloat64() * cfg.NoiseLon
			noisy.V += rng.NormFloat64() * cfg.NoiseV
			others = append(others, &traffic.Vehicle{ID: id, State: noisy})
		}
		sens.Observe(egoState, others)
	}
	g := builder.Build(sens.History())
	if g == nil {
		return nil
	}
	egoNow, ok := history[z-1].states[egoID]
	if !ok {
		return nil
	}
	s := &Sample{Graph: g}
	fill := func(future snapshot, truth *[phantom.NumSlots][3]float64, mask *[phantom.NumSlots]bool) {
		for i := 0; i < phantom.NumSlots; i++ {
			info := g.Info[i]
			if info.Kind != phantom.NotMissing {
				mask[i] = true
				continue
			}
			fs, ok := future.states[info.ID]
			if !ok {
				mask[i] = true
				continue
			}
			truth[i] = [3]float64{
				world.RelLat(fs, egoNow, cfg.Traffic.World.LaneWidth),
				world.RelLon(fs, egoNow),
				world.RelV(fs, egoNow),
			}
		}
	}
	fill(history[z], &s.Truth, &s.Mask) // step t+1
	for h := 2; h <= cfg.Horizon && z-1+h < len(history); h++ {
		var truth [phantom.NumSlots][3]float64
		var mask [phantom.NumSlots]bool
		fill(history[z-1+h], &truth, &mask)
		s.TruthK = append(s.TruthK, truth)
		s.MaskK = append(s.MaskK, mask)
	}
	return s
}
