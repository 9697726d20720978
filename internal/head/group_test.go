package head

import (
	"bytes"
	"math/rand"
	"testing"

	"head/internal/obs/span"
	"head/internal/predict"
	"head/internal/rl"
	"head/internal/world"
)

func tinyGroupConfig() EnvConfig {
	cfg := DefaultEnvConfig()
	cfg.Traffic.World.RoadLength = 400
	cfg.Traffic.Density = 100
	cfg.MaxSteps = 40
	return cfg
}

func tinyAgent(cfg EnvConfig, p *predict.LSTGAT, seed int64) (*AgentController, *Env) {
	env := NewEnv(cfg, p, rand.New(rand.NewSource(seed)))
	agent := rl.NewBPDQN(rl.DefaultPDQNConfig(), env.Spec(), env.AMax(), 8, rand.New(rand.NewSource(9)))
	return &AgentController{ControllerName: "HEAD", Agent: agent}, env
}

// serialRollout rolls one environment to termination with the plain serial
// loop: Decide, StepManeuver, repeat. It is the reference the lock-step
// group must reproduce bit for bit.
func serialRollout(ctrl Controller, env *Env) []StepOutcome {
	ctrl.Reset()
	env.Reset()
	var outs []StepOutcome
	for !env.Done() {
		outs = append(outs, env.StepManeuver(ctrl.Decide(env)))
	}
	return outs
}

// TestGroupBitIdentity rolls the same seeded episodes serially and through
// a lock-step group and requires every per-step outcome — rewards, TTC,
// jerk, termination — to match exactly. Environment seeds differ so the
// episodes terminate at different steps, exercising divergent termination.
func TestGroupBitIdentity(t *testing.T) {
	cfg := tinyGroupConfig()
	seeds := []int64{11, 12, 13, 14, 15}

	// Serial reference, one fresh predictor clone and controller per env.
	base := tinyLSTGAT()
	var want [][]StepOutcome
	for _, seed := range seeds {
		ctrl, env := tinyAgent(cfg, base.Clone(), seed)
		want = append(want, serialRollout(ctrl, env))
	}

	// Lock-step group over identically seeded envs with the same weights.
	ctrl, _ := tinyAgent(cfg, nil, 0)
	envs := make([]*Env, len(seeds))
	for i, seed := range seeds {
		_, envs[i] = tinyAgent(cfg, base.Clone(), seed)
	}
	got := make([][]StepOutcome, len(envs))
	g := &Group{Envs: envs, Ctrl: ctrl}
	steps := g.Run(nil, nil, func(i int, out StepOutcome) {
		got[i] = append(got[i], out)
	})
	if steps <= 0 {
		t.Fatalf("Run returned %d lock-step iterations", steps)
	}
	for i := range envs {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("env %d: %d batched steps, %d serial steps", i, len(got[i]), len(want[i]))
		}
		for s := range got[i] {
			if got[i][s] != want[i][s] {
				t.Errorf("env %d step %d diverged:\nbatched %+v\nserial  %+v", i, s, got[i][s], want[i][s])
			}
		}
	}
	lens := map[int]bool{}
	for i := range got {
		lens[len(got[i])] = true
	}
	if len(lens) < 2 {
		t.Logf("note: all %d episodes terminated at the same step; divergent-termination path not exercised by these seeds", len(seeds))
	}
	for i, e := range envs {
		if !e.Done() {
			t.Errorf("env %d not done after Run", i)
		}
	}
}

// nonBatchController exercises the per-env Decide fallback (it has no
// DecideBatch).
type nonBatchController struct{ decides int }

func (c *nonBatchController) Name() string { return "plain" }
func (c *nonBatchController) Reset()       {}
func (c *nonBatchController) Decide(env *Env) world.Maneuver {
	c.decides++
	return world.Maneuver{B: world.LaneKeep, A: 0}
}

func TestGroupFallbackController(t *testing.T) {
	cfg := tinyGroupConfig()
	cfg.UsePrediction = false // no batched perception forward either
	envs := []*Env{
		NewEnv(cfg, nil, rand.New(rand.NewSource(21))),
		NewEnv(cfg, nil, rand.New(rand.NewSource(22))),
	}
	ctrl := &nonBatchController{}
	steps := (&Group{Envs: envs, Ctrl: ctrl}).Run(nil, nil, nil)
	if steps <= 0 {
		t.Fatalf("Run returned %d iterations", steps)
	}
	if ctrl.decides == 0 {
		t.Error("fallback controller never consulted")
	}
	for i, e := range envs {
		if !e.Done() {
			t.Errorf("env %d not done", i)
		}
	}
}

// TestGroupSpans checks the batched phases land on the lane and that the
// step-coverage identity (phases + self ≈ steps) the headtrace checker
// gates continues to hold for lock-step traces.
func TestGroupSpans(t *testing.T) {
	cfg := tinyGroupConfig()
	base := tinyLSTGAT()
	ctrl, _ := tinyAgent(cfg, nil, 0)
	envs := make([]*Env, 3)
	for i := range envs {
		_, envs[i] = tinyAgent(cfg, base.Clone(), int64(31+i))
	}
	tr := span.New(span.Config{Sample: 1})
	(&Group{Envs: envs, Ctrl: ctrl}).Run(tr.Lane("batch-test"), nil, nil)
	spans, _ := tr.Snapshot()
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
	}
	for _, want := range []string{"phantom_build", "lstgat_infer", "assemble_state", "bpdqn_forward", "env_physics"} {
		if names[want] == 0 {
			t.Errorf("no %q span recorded (got %v)", want, names)
		}
	}
	// The accounting identity headtrace -check gates must survive
	// lock-step execution: phases under steps plus step self time equals
	// step time.
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	a, err := span.ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	steps, phases, self, relErr := a.Coverage()
	if steps == 0 {
		t.Fatal("no step spans traced")
	}
	if relErr > 0.01 {
		t.Errorf("coverage identity off by %.2f%% (steps %.0fµs, phases %.0fµs, self %.0fµs)",
			relErr*100, steps, phases, self)
	}
}

// TestGroupActionOnlyBitIdentity double-checks the controller side alone:
// with prediction disabled the only batched work is action selection, so
// any divergence isolates to SelectActionBatch.
func TestGroupActionOnlyBitIdentity(t *testing.T) {
	cfg := tinyGroupConfig()
	cfg.UsePrediction = false
	seeds := []int64{41, 42, 43}
	var want [][]StepOutcome
	for _, seed := range seeds {
		ctrl, env := tinyAgent(cfg, nil, seed)
		want = append(want, serialRollout(ctrl, env))
	}
	ctrl, _ := tinyAgent(cfg, nil, 0)
	envs := make([]*Env, len(seeds))
	for i, seed := range seeds {
		_, envs[i] = tinyAgent(cfg, nil, seed)
	}
	got := make([][]StepOutcome, len(envs))
	(&Group{Envs: envs, Ctrl: ctrl}).Run(nil, nil, func(i int, out StepOutcome) {
		got[i] = append(got[i], out)
	})
	for i := range envs {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("env %d: %d batched vs %d serial steps", i, len(got[i]), len(want[i]))
		}
		for s := range got[i] {
			if got[i][s] != want[i][s] {
				t.Errorf("env %d step %d diverged", i, s)
			}
		}
	}
}
