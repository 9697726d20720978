package eval

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"head/internal/head"
	"head/internal/obs/span"
	"head/internal/policy"
	"head/internal/predict"
	"head/internal/reward"
	"head/internal/rl"
	"head/internal/world"
)

func tinyEnv(seed int64) *head.Env {
	cfg := head.DefaultEnvConfig()
	cfg.Traffic.World.RoadLength = 400
	cfg.Traffic.Density = 100
	cfg.MaxSteps = 120
	return head.NewEnv(cfg, nil, rand.New(rand.NewSource(seed)))
}

// serial runs every episode on one shared controller/environment pair: a
// valid setup for Run with one worker and groups of one.
func serial(ctrl head.Controller, env *head.Env) func(int) (head.Controller, *head.Env) {
	return func(int) (head.Controller, *head.Env) { return ctrl, env }
}

func TestRunEpisodesMetrics(t *testing.T) {
	env := tinyEnv(1)
	ctrl := policy.NewIDMLC(env.Cfg.Traffic.World)
	m := Run(3, 1, 1, nil, nil, nil, serial(ctrl, env))
	if m.Method != "IDM-LC" {
		t.Errorf("Method = %q", m.Method)
	}
	if m.Episodes != 3 {
		t.Errorf("Episodes = %d", m.Episodes)
	}
	w := env.Cfg.Traffic.World
	if m.AvgVA < w.VMin || m.AvgVA > w.VMax {
		t.Errorf("AvgVA = %g outside speed limits", m.AvgVA)
	}
	if m.AvgDTA <= 0 {
		t.Errorf("AvgDTA = %g, want positive", m.AvgDTA)
	}
	if m.AvgJA < 0 {
		t.Errorf("AvgJA = %g", m.AvgJA)
	}
	if m.AvgDCA < 0 {
		t.Errorf("AvgDCA = %g", m.AvgDCA)
	}
	if m.MinTTCA < 0 {
		t.Errorf("MinTTCA = %g", m.MinTTCA)
	}
	for _, v := range []float64{m.AvgDTA, m.AvgDTC, m.AvgCA, m.MinTTCA, m.AvgVA, m.AvgJA, m.AvgDCA} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite metric in %+v", m)
		}
	}
}

func TestRunEpisodesDTARelatesToVelocity(t *testing.T) {
	// A faster controller must get a smaller driving time on an empty
	// road.
	cfg := head.DefaultEnvConfig()
	cfg.Traffic.World.RoadLength = 400
	cfg.Traffic.Density = 0
	cfg.MaxSteps = 300
	fast := head.NewEnv(cfg, nil, rand.New(rand.NewSource(2)))
	m := Run(2, 1, 1, nil, nil, nil, serial(policy.NewIDMLC(cfg.Traffic.World), fast))
	if m.Finished != 2 {
		t.Fatalf("IDM-LC should finish an empty road: %+v", m)
	}
	want := cfg.Traffic.World.RoadLength / m.AvgVA
	if m.AvgDTA < want*0.5 || m.AvgDTA > want*2 {
		t.Errorf("AvgDTA %g inconsistent with AvgVA %g", m.AvgDTA, m.AvgVA)
	}
}

func TestSearchWeightsFindsPeak(t *testing.T) {
	base := reward.DefaultWeights()
	axes := []Axis{{Name: "w4", Min: 0, Max: 0.5, Step: 0.1}}
	// Score peaks at w4 = 0.2.
	score := func(w reward.Weights) float64 { return -math.Abs(w.Impact - 0.2) }
	res, err := SearchWeights(base, axes, score)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Values) != 6 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	if math.Abs(res[0].Best-0.2) > 1e-9 {
		t.Errorf("Best = %g, want 0.2", res[0].Best)
	}
}

func TestSearchWeightsAllAxes(t *testing.T) {
	res, err := SearchWeights(reward.DefaultWeights(), PaperAxes(), func(w reward.Weights) float64 {
		// Synthetic objective peaking at the paper's optimum.
		return -math.Abs(w.Safety-0.9) - math.Abs(w.Efficiency-0.8) -
			math.Abs(w.Comfort-0.6) - math.Abs(w.Impact-0.2)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.9, 0.8, 0.6, 0.2}
	for i, r := range res {
		if math.Abs(r.Best-want[i]) > 1e-9 {
			t.Errorf("axis %s best = %g, want %g", r.Axis.Name, r.Best, want[i])
		}
	}
}

func TestSearchWeightsErrors(t *testing.T) {
	if _, err := SearchWeights(reward.DefaultWeights(),
		[]Axis{{Name: "w9", Min: 0, Max: 1, Step: 0.5}},
		func(reward.Weights) float64 { return 0 }); err == nil {
		t.Error("expected error for unknown coefficient")
	}
	if _, err := SearchWeights(reward.DefaultWeights(),
		[]Axis{{Name: "w1", Min: 0, Max: 1, Step: 0}},
		func(reward.Weights) float64 { return 0 }); err == nil {
		t.Error("expected error for zero step")
	}
	if _, err := SearchWeights(reward.DefaultWeights(),
		[]Axis{{Name: "w1", Min: 1, Max: 0, Step: 0.1}},
		func(reward.Weights) float64 { return 0 }); err == nil {
		t.Error("expected error for inverted range")
	}
}

func TestWithCoefficient(t *testing.T) {
	base := reward.DefaultWeights()
	w, err := withCoefficient(base, "w2", 0.4)
	if err != nil || w.Efficiency != 0.4 || w.Safety != base.Safety {
		t.Errorf("withCoefficient: %+v err=%v", w, err)
	}
}

// crashController drives off the road immediately, exercising the
// collision accounting and the no-finish extrapolation path of AvgDT-A.
type crashController struct{}

func (crashController) Name() string { return "crash" }
func (crashController) Reset()       {}
func (crashController) Decide(env *head.Env) world.Maneuver {
	return world.Maneuver{B: world.LaneLeft, A: 0}
}

func TestRunEpisodesCollisions(t *testing.T) {
	env := tinyEnv(60)
	m := Run(3, 1, 1, nil, nil, nil, serial(crashController{}, env))
	if m.Collisions != 3 {
		t.Errorf("Collisions = %d, want 3", m.Collisions)
	}
	if m.Finished != 0 {
		t.Errorf("Finished = %d, want 0", m.Finished)
	}
	// No episode finished, so AvgDT-A must be the pace extrapolation.
	if m.AvgDTA <= 0 {
		t.Errorf("AvgDTA = %g, want extrapolated positive value", m.AvgDTA)
	}
}

func TestRunEpisodesZeroEpisodes(t *testing.T) {
	env := tinyEnv(61)
	m := Run(0, 1, 1, nil, nil, nil, serial(crashController{}, env))
	if m.Episodes != 0 || m.AvgVA != 0 || m.AvgDTA != 0 {
		t.Errorf("zero-episode metrics = %+v", m)
	}
}

// batchedSetup builds a per-episode HEAD controller and environment with
// identical agent/predictor weights for every episode — the contract Run
// requires of its setup function.
func batchedSetup(t *testing.T, usePrediction bool) func(ep int) (head.Controller, *head.Env) {
	t.Helper()
	cfg := head.DefaultEnvConfig()
	cfg.Traffic.World.RoadLength = 400
	cfg.Traffic.Density = 100
	cfg.MaxSteps = 60
	cfg.UsePrediction = usePrediction
	pcfg := predict.DefaultLSTGATConfig()
	pcfg.AttnDim, pcfg.GATOut, pcfg.HiddenDim = 8, 6, 8
	return func(ep int) (head.Controller, *head.Env) {
		p := predict.NewLSTGAT(pcfg, rand.New(rand.NewSource(5)))
		env := head.NewEnv(cfg, p, rand.New(rand.NewSource(100+int64(ep))))
		agent := rl.NewBPDQN(rl.DefaultPDQNConfig(), env.Spec(), env.AMax(), 8, rand.New(rand.NewSource(9)))
		return &head.AgentController{ControllerName: "HEAD", Agent: agent}, env
	}
}

// TestRunEpisodesBatchedBitIdentity is the eval-level gate of the batched
// execution engine: grouping episodes into lock-step batches must yield
// byte-identical Metrics for every batch width, including widths that do
// not divide the episode count and groups whose members terminate at
// different steps.
func TestRunEpisodesBatchedBitIdentity(t *testing.T) {
	const episodes = 7
	for _, usePred := range []bool{true, false} {
		setup := batchedSetup(t, usePred)
		want := RunEpisodesBatched(episodes, 1, 1, nil, nil, setup)
		for _, be := range []int{2, 3, 8} {
			got := RunEpisodesBatched(episodes, be, 1, nil, nil, setup)
			if got != want {
				t.Errorf("usePrediction=%v batchEnvs=%d metrics diverged:\nbatched %+v\nwidth 1 %+v", usePred, be, got, want)
			}
		}
		// Worker parallelism on top of batching must not change bytes
		// either.
		if got := RunEpisodesBatched(episodes, 3, 4, nil, nil, setup); got != want {
			t.Errorf("usePrediction=%v batchEnvs=3 workers=4 diverged from width 1", usePred)
		}
	}
}

// TestRunDecisionRecordsPerMember requires the decision records of a
// batched evaluation to be the width-1 records: each member files its
// records under its own episode, with its own attention rows, and no
// (episode, step) key repeats.
func TestRunDecisionRecordsPerMember(t *testing.T) {
	const episodes = 6
	setup := batchedSetup(t, true)
	records := func(width int) map[[2]int32]span.Decision {
		t.Helper()
		var buf bytes.Buffer
		tr := span.New(span.Config{Sample: 1, Decisions: &buf})
		Run(episodes, width, 1, nil, tr, nil, setup)
		ds, err := span.ReadDecisions(&buf)
		if err != nil {
			t.Fatal(err)
		}
		byKey := map[[2]int32]span.Decision{}
		for _, d := range ds {
			k := [2]int32{d.Ep, d.Step}
			if _, dup := byKey[k]; dup {
				t.Fatalf("width %d: (ep %d, step %d) recorded twice", width, d.Ep, d.Step)
			}
			if len(d.Attention) == 0 {
				t.Fatalf("width %d: (ep %d, step %d) has no attention", width, d.Ep, d.Step)
			}
			d.Lane, d.Unit = 0, "" // lanes are per group
			byKey[k] = d
		}
		return byKey
	}
	want, got := records(1), records(4)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("%d records at width 4, %d at width 1", len(got), len(want))
	}
	for k, w := range want {
		if !reflect.DeepEqual(got[k], w) {
			t.Errorf("(ep %d, step %d): width 4 %+v\nwidth 1 %+v", k[0], k[1], got[k], w)
		}
	}
}
