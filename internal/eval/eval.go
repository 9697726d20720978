// Package eval is the end-to-end evaluation harness: one runner, Run,
// rolls controllers through HEAD environments in lock-step groups
// (head.Group; width 1 is a group of one) and computes the macroscopic and
// microscopic metrics of Tables I and II (AvgDT-A, AvgDT-C, Avg#-CA,
// MinTTC-A, AvgV-A, AvgJ-A, AvgD-CA); grid.go holds the reward
// coefficient search of Table VII.
package eval

import (
	"context"
	"fmt"
	"math"
	"sort"

	"head/internal/head"
	"head/internal/obs"
	"head/internal/obs/quality"
	"head/internal/obs/span"
	"head/internal/parallel"
	"head/internal/sensor"
	"head/internal/world"
)

// Metrics aggregates the Table I / Table II measurements over a set of
// test episodes.
type Metrics struct {
	Method string

	// Macroscopic.
	AvgDTA float64 // average AV driving time through the road, s
	AvgDTC float64 // average driving time of trailing conventional vehicles, s
	AvgCA  float64 // average number of times the AV forces its rear vehicle to decelerate > v_thr

	// Microscopic.
	MinTTCA float64 // average per-episode minimum TTC, s
	AvgVA   float64 // average AV velocity, m/s
	AvgJA   float64 // average |Δa| per step, m/s²
	AvgDCA  float64 // average rear-vehicle deceleration per step, m/s

	Episodes, Finished, Collisions int
}

// followRadius is how far behind the AV a conventional vehicle must be to
// count toward AvgDT-C (the paper uses 100 m).
const followRadius = 100.0

// Safety-metric histogram bounds: ttcBuckets spans the TTC range the
// safety reward cares about (seconds), rearDecelBuckets the rear-vehicle
// velocity drops the impact term penalizes (m/s per step).
var (
	ttcBuckets       = []float64{0.5, 1, 1.5, 2, 3, 4, 5, 7, 10, 15}
	rearDecelBuckets = []float64{0.05, 0.1, 0.2, 0.5, 1, 2, 3, 5}
)

// episodeObs holds the pre-resolved metric handles one evaluation episode
// records into; the zero value disables recording. Handles are resolved
// once per episode so the per-step path is two atomic adds, and every
// metric is write-only — the returned Metrics never depend on it.
type episodeObs struct {
	ttc, rearDecel                        *obs.Histogram
	episodes, steps, collisions, finished *obs.Counter
}

func newEpisodeObs(reg *obs.Registry) episodeObs {
	if reg == nil {
		return episodeObs{}
	}
	return episodeObs{
		ttc:        reg.Histogram("eval.ttc_seconds", ttcBuckets...),
		rearDecel:  reg.Histogram("eval.rear_decel", rearDecelBuckets...),
		episodes:   reg.Counter("eval.episodes"),
		steps:      reg.Counter("eval.steps"),
		collisions: reg.Counter("eval.collisions"),
		finished:   reg.Counter("eval.finished"),
	}
}

// episodeTotals is one episode's partial aggregate. Episodes accumulate
// independently and are reduced in episode order, so the final Metrics do
// not depend on which worker ran which episode.
type episodeTotals struct {
	sumV, sumJ, sumD, sumDTC, sumDTA float64
	nV, nJ, nD, nDTC, nDTA           int
	minTTC                           float64
	hasTTC                           bool
	ca                               int
	finished, collisions             int
}

// epAccum accumulates one episode's partial sums step by step, in the
// episode's own step order whatever group it runs in.
type epAccum struct {
	t       episodeTotals
	env     *head.Env
	eo      episodeObs
	followV map[int]*[2]float64 // id → {sumV, count} of trailing vehicles
}

func newEpAccum(env *head.Env, eo episodeObs) *epAccum {
	return &epAccum{
		t:       episodeTotals{minTTC: math.Inf(1)},
		env:     env,
		eo:      eo,
		followV: map[int]*[2]float64{},
	}
}

// observe folds one StepManeuver outcome; the environment's post-step
// state must be current.
func (a *epAccum) observe(out head.StepOutcome) {
	t := &a.t
	av := a.env.Sim().AV.State
	t.sumV += av.V
	t.nV++
	t.sumJ += out.Jerk
	t.nJ++
	if out.TTCValid {
		t.minTTC = math.Min(t.minTTC, out.TTC)
		if a.eo.ttc != nil {
			a.eo.ttc.Observe(out.TTC)
		}
	}
	if out.RearExists {
		t.sumD += out.RearDecel
		t.nD++
		if out.RearDecel > a.env.Cfg.Reward.VThr {
			t.ca++
		}
		if a.eo.rearDecel != nil {
			a.eo.rearDecel.Observe(out.RearDecel)
		}
	}
	for _, v := range a.env.Sim().Vehicles {
		d := av.Lon - v.State.Lon
		if d > 0 && d <= followRadius {
			acc, ok := a.followV[v.ID]
			if !ok {
				acc = &[2]float64{}
				a.followV[v.ID] = acc
			}
			acc[0] += v.State.V
			acc[1]++
		}
	}
	if out.Collision {
		t.collisions++
	}
	if out.Finished {
		t.finished++
		t.sumDTA += float64(a.env.Steps()) * a.env.Cfg.Traffic.World.Dt
		t.nDTA++
	}
}

// finish flushes the episode counters and folds the follower driving
// times, returning the completed totals.
func (a *epAccum) finish() episodeTotals {
	t := &a.t
	if a.eo.episodes != nil {
		a.eo.episodes.Inc()
		a.eo.steps.Add(int64(t.nV))
		a.eo.collisions.Add(int64(t.collisions))
		a.eo.finished.Add(int64(t.finished))
	}
	t.hasTTC = !math.IsInf(t.minTTC, 1)
	// Sum follower driving times in vehicle-ID order: map iteration order
	// is randomized per run, and an order-dependent float sum would make
	// repeated runs (and the cross-worker determinism guarantee) drift in
	// the last bits.
	w := a.env.Cfg.Traffic.World
	ids := make([]int, 0, len(a.followV))
	for id := range a.followV {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		acc := a.followV[id]
		if acc[1] == 0 {
			continue
		}
		avgV := acc[0] / acc[1]
		if avgV > 0 {
			// Effective end-to-end driving time at the vehicle's observed
			// pace (the spawned vehicles do not physically traverse the
			// whole road, so extrapolate).
			t.sumDTC += w.RoadLength / avgV
			t.nDTC++
		}
	}
	return *t
}

// qualitySample summarizes the pre-decision observation the way the
// serving path sees it: the latest sensor frame's AV speed and neighbor
// count, the front-leader TTC from the sensed (not ground-truth) states,
// and the attention entropy behind the pending decision. Steps whose
// sensor history is still warming up are skipped — a served request
// always carries a full z-frame history, and the baseline must describe
// the same population the monitor measures.
func qualitySample(env *head.Env) (quality.Sample, bool) {
	hist := env.SensorHistory()
	if len(hist) != env.Cfg.Sensor.Z {
		return quality.Sample{}, false
	}
	f := hist[len(hist)-1]
	s := quality.Sample{Speed: f.AV.V, Neighbors: len(f.Observed)}
	obsList := make([]sensor.Observation, 0, len(f.Observed))
	for id, st := range f.Observed {
		obsList = append(obsList, sensor.Observation{ID: id, State: st})
	}
	veh := func(i int) (int, world.State) { return obsList[i].ID, obsList[i].State }
	if ttc, ok := quality.LeaderTTC(f.AV, len(obsList), veh, env.Cfg.Traffic.World.VehicleLen); ok {
		s.TTC, s.TTCValid = ttc, true
	}
	if ent, ok := quality.MeanAttnEntropy(env.DecisionAttention()); ok {
		s.AttnEntropy, s.AttnValid = ent, true
	}
	return s, true
}

// reduce folds per-episode totals (in episode order) into Metrics.
func reduce(method string, w world.Config, parts []episodeTotals) Metrics {
	m := Metrics{Method: method}
	var tot episodeTotals
	sumMinTTC, nMinTTC := 0.0, 0
	sumCA := 0.0
	for _, t := range parts {
		m.Episodes++
		tot.sumV += t.sumV
		tot.nV += t.nV
		tot.sumJ += t.sumJ
		tot.nJ += t.nJ
		tot.sumD += t.sumD
		tot.nD += t.nD
		tot.sumDTC += t.sumDTC
		tot.nDTC += t.nDTC
		tot.sumDTA += t.sumDTA
		tot.nDTA += t.nDTA
		if t.hasTTC {
			sumMinTTC += t.minTTC
			nMinTTC++
		}
		sumCA += float64(t.ca)
		m.Finished += t.finished
		m.Collisions += t.collisions
	}
	if tot.nDTA > 0 {
		m.AvgDTA = tot.sumDTA / float64(tot.nDTA)
	} else if tot.nV > 0 && tot.sumV > 0 {
		// No episode finished within budget: extrapolate from pace.
		m.AvgDTA = w.RoadLength / (tot.sumV / float64(tot.nV))
	}
	if tot.nDTC > 0 {
		m.AvgDTC = tot.sumDTC / float64(tot.nDTC)
	}
	if m.Episodes > 0 {
		m.AvgCA = sumCA / float64(m.Episodes)
	}
	if nMinTTC > 0 {
		m.MinTTCA = sumMinTTC / float64(nMinTTC)
	}
	if tot.nV > 0 {
		m.AvgVA = tot.sumV / float64(tot.nV)
	}
	if tot.nJ > 0 {
		m.AvgJA = tot.sumJ / float64(tot.nJ)
	}
	if tot.nD > 0 {
		m.AvgDCA = tot.sumD / float64(tot.nD)
	}
	return m
}

// Run evaluates episodes in lock-step groups of batchEnvs (≤ 1 runs
// groups of one) on at most workers goroutines (0 means all cores).
// setup(ep) must return a controller and environment owned by that episode
// alone — network layers cache forward activations, so trained models are
// cloned per episode, and the environment's RNG derives from the episode
// index (see parallel.Rand). A group's first controller decides for every
// member, so the policies must be identical clones.
//
// Observation is out of band: per-step TTC and rear-deceleration
// histograms plus episode counters stream into reg, spans and decision
// records onto one lane of tr per group, and when rec profiles the
// controller, one quality.Sample per decision into rec (any may be nil).
// Per-episode results reduce in episode order and the batched forwards are
// bit-identical per row, so the returned Metrics — and rec's baseline —
// are byte-identical for every batch width and worker count.
func Run(episodes, batchEnvs, workers int, reg *obs.Registry, tr *span.Tracer, rec *quality.Recorder, setup func(episode int) (head.Controller, *head.Env)) Metrics {
	if episodes <= 0 {
		return Metrics{}
	}
	batchEnvs = max(batchEnvs, 1)
	eo := newEpisodeObs(reg)
	groups := (episodes + batchEnvs - 1) / batchEnvs
	type groupResult struct {
		totals []episodeTotals
		name   string
		world  world.Config
	}
	parts, _ := parallel.Map(context.Background(), groups, workers, func(gi int) (groupResult, error) {
		lo := gi * batchEnvs
		hi := min(lo+batchEnvs, episodes)
		g := &head.Group{First: lo}
		accs := make([]*epAccum, 0, hi-lo)
		for ep := lo; ep < hi; ep++ {
			ctrl, env := setup(ep)
			if g.Ctrl == nil {
				g.Ctrl = ctrl
			}
			g.Envs = append(g.Envs, env)
			accs = append(accs, newEpAccum(env, eo))
		}
		var before func(i int, m world.Maneuver)
		samples := make([]quality.Sample, len(g.Envs))
		sampled := make([]bool, len(g.Envs))
		if rec.Enabled(g.Ctrl.Name()) {
			before = func(i int, m world.Maneuver) {
				samples[i], sampled[i] = qualitySample(g.Envs[i])
				// The decision side of the sample: m.A is the agent's raw
				// (pre-clamp) output — the same value the decision service
				// returns as Decision.Accel, so the two sides bin
				// identically.
				samples[i].Behavior, samples[i].Accel = int(m.B), m.A
			}
		}
		// A nil tracer yields a nil (silent) lane.
		g.Run(tr.Lane(fmt.Sprintf("eval-%03d", gi)), before, func(i int, out head.StepOutcome) {
			accs[i].observe(out)
			if sampled[i] {
				qs := &samples[i]
				qs.Reward = out.Reward
				qs.Safety, qs.Efficiency = out.Terms.Safety, out.Terms.Efficiency
				qs.Comfort, qs.Impact = out.Terms.Comfort, out.Terms.Impact
				qs.RewardValid = true
				rec.Observe(*qs)
			}
		})
		res := groupResult{
			totals: make([]episodeTotals, len(accs)),
			name:   g.Ctrl.Name(),
			world:  g.Envs[0].Cfg.Traffic.World,
		}
		for i, a := range accs {
			res.totals[i] = a.finish()
		}
		return res, nil
	})
	totals := make([]episodeTotals, 0, episodes)
	for _, p := range parts {
		totals = append(totals, p.totals...)
	}
	return reduce(parts[0].name, parts[0].world, totals)
}

// RunEpisodesBatched is Run without decision-quality profiling.
func RunEpisodesBatched(episodes, batchEnvs, workers int, reg *obs.Registry, tr *span.Tracer, setup func(episode int) (head.Controller, *head.Env)) Metrics {
	return Run(episodes, batchEnvs, workers, reg, tr, nil, setup)
}
