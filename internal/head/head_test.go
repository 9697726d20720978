package head

import (
	"math"
	"math/rand"
	"testing"

	"head/internal/phantom"
	"head/internal/predict"
	"head/internal/rl"
	"head/internal/world"
)

// tinyEnvConfig is a fast-running environment for tests: a short road at
// moderate density.
func tinyEnvConfig() EnvConfig {
	cfg := DefaultEnvConfig()
	cfg.Traffic.World.RoadLength = 400
	cfg.Traffic.Density = 100
	cfg.MaxSteps = 120
	return cfg
}

var _ rl.Env = (*Env)(nil)

func TestEnvResetProducesState(t *testing.T) {
	env := NewEnv(tinyEnvConfig(), nil, rand.New(rand.NewSource(1)))
	s := env.Reset()
	if len(s) != env.Spec().Dim() {
		t.Fatalf("state dim %d, want %d", len(s), env.Spec().Dim())
	}
	if env.Graph() == nil {
		t.Fatal("no graph after Reset")
	}
	if env.Done() {
		t.Fatal("done right after Reset")
	}
	for _, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite state value")
		}
	}
}

func TestEnvStateLayout(t *testing.T) {
	env := NewEnv(tinyEnvConfig(), nil, rand.New(rand.NewSource(2)))
	s := env.Reset()
	av := env.Sim().AV.State
	if got := s[0] * laneScale; math.Abs(got-float64(av.Lat)) > 1e-9 {
		t.Errorf("state[0] decodes to lane %g, want %d", got, av.Lat)
	}
	if got := s[2] * vScale; math.Abs(got-av.V) > 1e-9 {
		t.Errorf("state[2] decodes to v %g, want %g", got, av.V)
	}
}

func TestEnvStepAdvances(t *testing.T) {
	env := NewEnv(tinyEnvConfig(), nil, rand.New(rand.NewSource(3)))
	env.Reset()
	lonBefore := env.Sim().AV.State.Lon
	_, r, done := env.Step(int(world.LaneKeep), 1)
	if env.Sim().AV.State.Lon <= lonBefore {
		t.Error("AV did not advance")
	}
	if math.IsNaN(r) {
		t.Error("NaN reward")
	}
	if done {
		t.Error("done after one step")
	}
	if env.Steps() != 1 {
		t.Errorf("Steps = %d", env.Steps())
	}
}

func TestEnvEpisodeFinishes(t *testing.T) {
	cfg := tinyEnvConfig()
	cfg.Traffic.Density = 0
	env := NewEnv(cfg, nil, rand.New(rand.NewSource(4)))
	env.Reset()
	finished := false
	for i := 0; i < cfg.MaxSteps && !finished; i++ {
		out := env.StepManeuver(world.Maneuver{B: world.LaneKeep, A: cfg.Traffic.World.AMax})
		finished = out.Finished
		if out.Done && !out.Finished && !out.Collision {
			t.Fatal("episode ended without finishing or colliding")
		}
	}
	if !finished {
		t.Fatal("AV never finished an empty 400 m road")
	}
	if !env.Done() {
		t.Error("env not done after finishing")
	}
	// Stepping a done env is a no-op.
	out := env.StepManeuver(world.Maneuver{})
	if !out.Done || out.Reward != 0 {
		t.Errorf("step after done = %+v", out)
	}
}

func TestEnvOffRoadCollision(t *testing.T) {
	env := NewEnv(tinyEnvConfig(), nil, rand.New(rand.NewSource(5)))
	env.Reset()
	var out StepOutcome
	for i := 0; i < 7; i++ {
		out = env.StepManeuver(world.Maneuver{B: world.LaneLeft})
		if out.Done {
			break
		}
	}
	if !out.Collision {
		t.Fatal("driving left forever should hit the road boundary")
	}
	if out.Terms.Safety != -3 {
		t.Errorf("collision safety term = %g, want -3", out.Terms.Safety)
	}
}

func TestEnvRewardUsesImpact(t *testing.T) {
	// With the impact weight zeroed, the reward must not change when the
	// rear vehicle decelerates. We just verify the config plumbing.
	cfg := ApplyVariant(tinyEnvConfig(), WithoutImpact)
	if cfg.Reward.Weights.Impact != 0 {
		t.Fatal("WithoutImpact did not zero w4")
	}
	if cfg.Reward.Weights.Safety != 0.9 {
		t.Error("WithoutImpact disturbed other weights")
	}
}

func TestApplyVariantSwitches(t *testing.T) {
	base := tinyEnvConfig()
	if cfg := ApplyVariant(base, WithoutPVC); cfg.UsePhantom {
		t.Error("WithoutPVC should disable phantom construction")
	}
	if cfg := ApplyVariant(base, WithoutLSTGAT); cfg.UsePrediction {
		t.Error("WithoutLSTGAT should disable prediction")
	}
	if cfg := ApplyVariant(base, Full); !cfg.UsePhantom || !cfg.UsePrediction {
		t.Error("Full should keep everything on")
	}
}

func TestVariantString(t *testing.T) {
	want := map[Variant]string{
		Full: "HEAD", WithoutPVC: "HEAD-w/o-PVC", WithoutLSTGAT: "HEAD-w/o-LST-GAT",
		WithoutBPDQN: "HEAD-w/o-BP-DQN", WithoutImpact: "HEAD-w/o-IMP", Variant(99): "HEAD-variant?",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("Variant(%d).String() = %q, want %q", int(v), v.String(), s)
		}
	}
}

func TestWithoutPVCZeroesPhantoms(t *testing.T) {
	cfg := ApplyVariant(tinyEnvConfig(), WithoutPVC)
	cfg.Traffic.Density = 0 // everything missing → all phantoms
	env := NewEnv(cfg, nil, rand.New(rand.NewSource(6)))
	env.Reset()
	g := env.Graph()
	for i := phantom.Slot(0); i < phantom.NumSlots; i++ {
		f := g.Steps[len(g.Steps)-1][phantom.TargetNode(i)]
		if f != (phantom.Feature{}) {
			t.Errorf("target %d feature = %v, want zeros under w/o-PVC", i, f)
		}
	}
}

func TestWithoutPredictionZeroFutureRows(t *testing.T) {
	cfg := ApplyVariant(tinyEnvConfig(), WithoutLSTGAT)
	env := NewEnv(cfg, nil, rand.New(rand.NewSource(7)))
	s := env.Reset()
	spec := env.Spec()
	for i := 0; i < phantom.NumSlots; i++ {
		base := spec.HLen() + i*spec.FeatDim
		for d := 0; d < 3; d++ {
			if s[base+d] != 0 {
				t.Fatalf("future row %d dim %d = %g, want 0", i, d, s[base+d])
			}
		}
	}
}

func TestNewVariantAgent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := rl.DefaultPDQNConfig()
	spec := rl.DefaultStateSpec()
	if a := NewVariantAgent(Full, cfg, spec, 3, 8, rng); a.Name() != "BP-DQN" {
		t.Errorf("Full agent = %s, want BP-DQN", a.Name())
	}
	if a := NewVariantAgent(WithoutBPDQN, cfg, spec, 3, 8, rng); a.Name() != "P-DQN" {
		t.Errorf("WithoutBPDQN agent = %s, want P-DQN", a.Name())
	}
}

func TestAgentControllerDecides(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	env := NewEnv(tinyEnvConfig(), nil, rng)
	env.Reset()
	agent := rl.NewBPDQN(rl.DefaultPDQNConfig(), env.Spec(), env.AMax(), 8, rng)
	ctrl := &AgentController{ControllerName: "HEAD", Agent: agent}
	if ctrl.Name() != "HEAD" {
		t.Error("controller name")
	}
	m := ctrl.Decide(env)
	if math.Abs(m.A) > env.AMax() {
		t.Errorf("maneuver accel %g exceeds bound", m.A)
	}
	ctrl.Reset() // must not panic
}

func TestEnvRLTrainingSmoke(t *testing.T) {
	// A short BP-DQN training run on the real environment must execute
	// end to end: episodes terminate and rewards stay finite.
	cfg := tinyEnvConfig()
	cfg.MaxSteps = 50
	rng := rand.New(rand.NewSource(10))
	env := NewEnv(cfg, nil, rng)
	rlCfg := rl.DefaultPDQNConfig()
	rlCfg.Warmup = 30
	rlCfg.BatchSize = 8
	agent := rl.NewBPDQN(rlCfg, env.Spec(), env.AMax(), 8, rng)
	res := rl.Train(agent, env, 3, 50)
	if len(res.EpisodeRewards) != 3 {
		t.Fatalf("episodes run: %d", len(res.EpisodeRewards))
	}
	for _, r := range res.EpisodeRewards {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			t.Fatal("non-finite episode reward")
		}
	}
}

func TestStepManeuverRearTracking(t *testing.T) {
	env := NewEnv(tinyEnvConfig(), nil, rand.New(rand.NewSource(11)))
	env.Reset()
	sawRear := false
	for i := 0; i < 40 && !env.Done(); i++ {
		out := env.StepManeuver(world.Maneuver{B: world.LaneKeep, A: 0})
		if out.RearExists {
			sawRear = true
			if out.RearDecel < 0 {
				t.Fatal("negative rear deceleration")
			}
		}
	}
	if !sawRear {
		t.Skip("no rear vehicle encountered at this seed")
	}
}

func TestEnvBlindSensor(t *testing.T) {
	// A sensor with (nearly) zero range sees nothing: every target becomes
	// a phantom, and the environment must still run whole episodes.
	cfg := tinyEnvConfig()
	cfg.Sensor.R = 0.001
	env := NewEnv(cfg, nil, rand.New(rand.NewSource(20)))
	env.Reset()
	g := env.Graph()
	for i := phantom.Slot(0); i < phantom.NumSlots; i++ {
		if g.Info[i].Kind == phantom.NotMissing {
			t.Fatalf("slot %d observed with a blind sensor", i)
		}
	}
	for i := 0; i < 10 && !env.Done(); i++ {
		_, r, _ := env.Step(int(world.LaneKeep), 0)
		if math.IsNaN(r) {
			t.Fatal("NaN reward with blind sensor")
		}
	}
}

func TestEnvDenseTrafficStability(t *testing.T) {
	// Near-jam density: the environment must remain numerically stable.
	cfg := tinyEnvConfig()
	cfg.Traffic.Density = 400
	env := NewEnv(cfg, nil, rand.New(rand.NewSource(21)))
	env.Reset()
	for i := 0; i < 30 && !env.Done(); i++ {
		s, r, _ := env.Step(int(world.LaneKeep), -1)
		if math.IsNaN(r) {
			t.Fatal("NaN reward in dense traffic")
		}
		for _, v := range s {
			if math.IsNaN(v) {
				t.Fatal("NaN state in dense traffic")
			}
		}
	}
}

func TestEnvWithPredictor(t *testing.T) {
	// A tiny LST-GAT exercises the prediction path of the augmented state:
	// the future rows must carry its (scaled) outputs, after Reset and
	// after every step.
	cfg := tinyEnvConfig()
	env := NewEnv(cfg, tinyLSTGAT(), rand.New(rand.NewSource(30)))
	env.Reset()
	spec := env.Spec()
	check := func(when string) {
		t.Helper()
		s, p := env.State(), env.Prediction()
		if p == (predict.Prediction{}) {
			t.Fatalf("%s: zero prediction from a live LST-GAT", when)
		}
		for i := 0; i < phantom.NumSlots; i++ {
			base := spec.HLen() + i*spec.FeatDim
			if s[base+1] != p[i][1]/lonScale {
				t.Fatalf("%s: future row %d d_lon %g, want %g/lonScale", when, i, s[base+1], p[i][1])
			}
		}
		if len(env.DecisionAttention()) != phantom.NumSlots {
			t.Fatalf("%s: %d attention rows, want %d", when, len(env.DecisionAttention()), phantom.NumSlots)
		}
	}
	check("reset")
	before := env.Prediction()
	env.Step(int(world.LaneKeep), 0)
	check("step")
	if env.Prediction() == before {
		t.Error("prediction not refreshed after step")
	}
}

// tinyLSTGAT is a small, fixed-seed LST-GAT for tests.
func tinyLSTGAT() *predict.LSTGAT {
	cfg := predict.DefaultLSTGATConfig()
	cfg.AttnDim, cfg.GATOut, cfg.HiddenDim = 8, 6, 8
	return predict.NewLSTGAT(cfg, rand.New(rand.NewSource(3)))
}
