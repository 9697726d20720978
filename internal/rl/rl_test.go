package rl

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"head/internal/nn"
	"head/internal/tensor"
)

// toyEnv is a small PAMDP used to validate the solvers: the best discrete
// behavior is encoded in state[0] and the best acceleration for it in
// state[1]. Rewards are maximized by reading both out of the state, which
// exercises the discrete head and the continuous parameter head together.
type toyEnv struct {
	spec  StateSpec
	rng   *rand.Rand
	state []float64
	aMax  float64
	step  int
}

func newToyEnv(seed int64) *toyEnv {
	return &toyEnv{
		spec: StateSpec{NumH: 2, NumF: 1, FeatDim: 3}, // 9-dim state
		rng:  rand.New(rand.NewSource(seed)),
		aMax: 3,
	}
}

func (e *toyEnv) Spec() StateSpec { return e.spec }
func (e *toyEnv) AMax() float64   { return e.aMax }

func (e *toyEnv) roll() []float64 {
	s := make([]float64, e.spec.Dim())
	for i := range s {
		s[i] = e.rng.Float64()*2 - 1
	}
	return s
}

func (e *toyEnv) Reset() []float64 {
	e.state = e.roll()
	e.step = 0
	return e.state
}

func (e *toyEnv) bestB() int {
	switch {
	case e.state[0] < -0.33:
		return 0
	case e.state[0] > 0.33:
		return 1
	default:
		return 2
	}
}

func (e *toyEnv) Step(b int, a float64) ([]float64, float64, bool) {
	r := 0.0
	if b == e.bestB() {
		r += 1
	}
	target := e.state[1] * e.aMax
	diff := (a - target) / (2 * e.aMax)
	r -= diff * diff
	e.state = e.roll()
	e.step++
	return e.state, r, e.step >= 20
}

func fastCfg() PDQNConfig {
	cfg := DefaultPDQNConfig()
	cfg.Warmup = 64
	cfg.BatchSize = 16
	cfg.ReplayCap = 2000
	cfg.Eps = EpsSchedule{Start: 1, End: 0.05, DecaySteps: 600}
	cfg.LR = 0.005
	return cfg
}

func TestReplayRingBuffer(t *testing.T) {
	r := NewReplay(3)
	for i := 0; i < 5; i++ {
		r.Push(Transition{Reward: float64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	seen := map[float64]bool{}
	for _, tr := range r.Sample(50, rand.New(rand.NewSource(1))) {
		seen[tr.Reward] = true
	}
	for _, old := range []float64{0, 1} {
		if seen[old] {
			t.Errorf("evicted transition %g still sampled", old)
		}
	}
	for _, kept := range []float64{2, 3, 4} {
		if !seen[kept] {
			t.Errorf("kept transition %g never sampled", kept)
		}
	}
}

// TestReplayGrowsAcrossFillBoundary pins that both rings, which grow as
// they fill, keep the fixed-size ring's behavior at capacity 3: Len counts
// up to the capacity and stays there, slot s holds the newest push whose
// index is s mod 3, and a transition sampled before a Push that grows the
// ring still reads its own values afterwards.
func TestReplayGrowsAcrossFillBoundary(t *testing.T) {
	r := NewReplay(3)
	p := NewPrioritizedReplay(3, 0.6)
	var held []Transition
	for i := 0; i < 8; i++ {
		tr := Transition{State: []float64{float64(i)}, Reward: float64(i)}
		r.Push(tr)
		p.Push(tr)
		for _, h := range held {
			if h.State[0] != h.Reward || h.Reward >= float64(i) {
				t.Fatalf("push %d grew the ring, and a transition sampled before it reads state %v, reward %g", i, h.State, h.Reward)
			}
		}
		held = nil
		want := min(i+1, 3)
		if r.Len() != want || p.Len() != want {
			t.Fatalf("after push %d: Len = %d (replay), %d (prioritized), want %d", i, r.Len(), p.Len(), want)
		}
		for s := 0; s < want; s++ {
			newest := s + 3*((i-s)/3)
			got := r.GatherInto(nil, []int{s})[0]
			if got.Reward != float64(newest) || p.data[s].Reward != float64(newest) {
				t.Fatalf("after push %d: slot %d holds %g (replay), %g (prioritized), want %d",
					i, s, got.Reward, p.data[s].Reward, newest)
			}
		}
		if i < 2 {
			held = r.Sample(4, rand.New(rand.NewSource(int64(i))))
		}
	}
}

func TestReplayPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero capacity")
		}
	}()
	NewReplay(0)
}

func TestEpsSchedule(t *testing.T) {
	e := EpsSchedule{Start: 1, End: 0.1, DecaySteps: 100}
	if e.At(0) != 1 {
		t.Errorf("At(0) = %g", e.At(0))
	}
	if got := e.At(50); math.Abs(got-0.55) > 1e-12 {
		t.Errorf("At(50) = %g, want 0.55", got)
	}
	if e.At(100) != 0.1 || e.At(1000) != 0.1 {
		t.Error("schedule floor broken")
	}
	if (EpsSchedule{Start: 1, End: 0.2}).At(5) != 0.2 {
		t.Error("zero decay steps should pin to End")
	}
}

func TestBranchedXBounds(t *testing.T) {
	spec := DefaultStateSpec()
	rng := rand.New(rand.NewSource(2))
	x := NewBranchedX(spec, 16, 3, rng)
	state := make([]float64, spec.Dim())
	for i := range state {
		state[i] = rng.Float64()*20 - 10
	}
	out := x.Forward([][]float64{state})
	if out.Rows != 1 || out.Cols != NumBehaviors {
		t.Fatalf("x output shape %dx%d", out.Rows, out.Cols)
	}
	for _, v := range out.Data {
		if v < -3 || v > 3 {
			t.Errorf("acceleration %g outside ±3", v)
		}
	}
}

func TestSharedXBounds(t *testing.T) {
	spec := DefaultStateSpec()
	rng := rand.New(rand.NewSource(3))
	x := NewSharedX(spec, 16, 3, rng)
	state := make([]float64, spec.Dim())
	out := x.Forward([][]float64{state})
	for _, v := range out.Data {
		if v < -3 || v > 3 {
			t.Errorf("acceleration %g outside ±3", v)
		}
	}
}

func TestQNetShapesAndBackward(t *testing.T) {
	spec := DefaultStateSpec()
	rng := rand.New(rand.NewSource(4))
	for _, q := range []QNet{NewBranchedQ(spec, 16, rng), NewSharedQ(spec, 16, rng)} {
		state := make([]float64, spec.Dim())
		for i := range state {
			state[i] = rng.Float64() - 0.5
		}
		xout := tensor.FromSlice(1, NumBehaviors, []float64{1, -1, 0})
		qv := q.Forward([][]float64{state}, xout)
		if qv.Rows != 1 || qv.Cols != NumBehaviors {
			t.Fatalf("Q output shape %dx%d", qv.Rows, qv.Cols)
		}
		d := tensor.New(1, NumBehaviors)
		d.Fill(1)
		dx := q.Backward(d)
		if dx.Rows != 1 || dx.Cols != NumBehaviors {
			t.Fatalf("dXout shape %dx%d", dx.Rows, dx.Cols)
		}
	}
}

func TestBranchedQGradientWrtXout(t *testing.T) {
	// Numerical check that BranchedQ.Backward returns correct dQ/dxout.
	spec := StateSpec{NumH: 2, NumF: 1, FeatDim: 3}
	rng := rand.New(rand.NewSource(5))
	q := NewBranchedQ(spec, 8, rng)
	state := make([]float64, spec.Dim())
	for i := range state {
		state[i] = rng.Float64() - 0.5
	}
	xout := tensor.FromSlice(1, NumBehaviors, []float64{0.5, -0.2, 1.1})
	sum := func() float64 {
		return tensor.Sum(q.Forward([][]float64{state}, xout))
	}
	q.Forward([][]float64{state}, xout)
	d := tensor.New(1, NumBehaviors)
	d.Fill(1)
	dx := q.Backward(d)
	const eps = 1e-6
	for i := range xout.Data {
		orig := xout.Data[i]
		xout.Data[i] = orig + eps
		lp := sum()
		xout.Data[i] = orig - eps
		lm := sum()
		xout.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("dxout[%d]: analytic %g vs numeric %g", i, dx.Data[i], num)
		}
	}
}

func TestActReturnsValidActions(t *testing.T) {
	env := newToyEnv(6)
	agents := []Agent{
		NewBPDQN(fastCfg(), env.Spec(), env.AMax(), 16, rand.New(rand.NewSource(7))),
		NewVanillaPDQN(fastCfg(), env.Spec(), env.AMax(), 16, rand.New(rand.NewSource(8))),
		NewPQP(fastCfg(), env.Spec(), env.AMax(), 16, rand.New(rand.NewSource(9))),
		NewPDDPG(fastCfg(), env.Spec(), env.AMax(), 16, rand.New(rand.NewSource(10))),
	}
	state := env.Reset()
	for _, a := range agents {
		for i := 0; i < 20; i++ {
			act := a.Act(state, i%2 == 0)
			if act.B < 0 || act.B >= NumBehaviors {
				t.Errorf("%s: behavior %d out of range", a.Name(), act.B)
			}
			if math.Abs(act.A) > env.AMax()+1e-9 {
				t.Errorf("%s: acceleration %g exceeds bound", a.Name(), act.A)
			}
			if len(act.Raw) == 0 {
				t.Errorf("%s: empty raw action", a.Name())
			}
		}
	}
}

func TestAgentNames(t *testing.T) {
	env := newToyEnv(11)
	rng := rand.New(rand.NewSource(12))
	cases := map[string]Agent{
		"BP-DQN": NewBPDQN(fastCfg(), env.Spec(), 3, 8, rng),
		"P-DQN":  NewVanillaPDQN(fastCfg(), env.Spec(), 3, 8, rng),
		"P-QP":   NewPQP(fastCfg(), env.Spec(), 3, 8, rng),
		"P-DDPG": NewPDDPG(fastCfg(), env.Spec(), 3, 8, rng),
	}
	for want, a := range cases {
		if a.Name() != want {
			t.Errorf("Name = %q, want %q", a.Name(), want)
		}
	}
}

// learnCheck trains an agent on the toy env and requires clear improvement
// over the early episodes plus a minimum greedy per-step reward.
func learnCheck(t *testing.T, name string, episodes int, minAvg float64, mk func() Agent) {
	t.Helper()
	env := newToyEnv(20)
	agent := mk()
	res := Train(agent, env, episodes, 20)
	early := mean(res.EpisodeRewards[:20])
	late := mean(res.EpisodeRewards[len(res.EpisodeRewards)-20:])
	if !(late > early+2) {
		t.Errorf("%s did not learn: early %.2f late %.2f", name, early, late)
	}
	stats := EvaluateAgent(agent, env, 10, 20)
	if stats.Avg < minAvg {
		t.Errorf("%s greedy avg reward %.2f below %.2f", name, stats.Avg, minAvg)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestBPDQNLearns(t *testing.T) {
	// The branched nets compress each state row to a scalar, so the toy
	// task (whose signal lives inside one row) needs a longer run.
	learnCheck(t, "BP-DQN", 300, 0.25, func() Agent {
		return NewBPDQN(fastCfg(), newToyEnv(0).Spec(), 3, 64, rand.New(rand.NewSource(21)))
	})
}

func TestPDQNLearns(t *testing.T) {
	learnCheck(t, "P-DQN", 120, 0.3, func() Agent {
		return NewVanillaPDQN(fastCfg(), newToyEnv(0).Spec(), 3, 16, rand.New(rand.NewSource(22)))
	})
}

func TestPDDPGLearns(t *testing.T) {
	learnCheck(t, "P-DDPG", 150, 0.1, func() Agent {
		return NewPDDPG(fastCfg(), newToyEnv(0).Spec(), 3, 16, rand.New(rand.NewSource(23)))
	})
}

func TestPQPPhasesAlternate(t *testing.T) {
	cfg := fastCfg()
	cfg.AlternatePhaseLen = 5
	env := newToyEnv(24)
	a := NewPQP(cfg, env.Spec(), 3, 8, rand.New(rand.NewSource(25)))
	if q, x := a.phase(); !q || x {
		t.Errorf("initial phase = (%t, %t), want Q-only", q, x)
	}
	a.trainSteps = 5
	if q, x := a.phase(); q || !x {
		t.Errorf("second phase = (%t, %t), want x-only", q, x)
	}
	// Joint agents always train both.
	joint := NewBPDQN(fastCfg(), env.Spec(), 3, 8, rand.New(rand.NewSource(26)))
	if q, x := joint.phase(); !q || !x {
		t.Error("joint agent should train both networks")
	}
}

func TestRunEpisodeAndEvaluate(t *testing.T) {
	env := newToyEnv(27)
	a := NewBPDQN(fastCfg(), env.Spec(), 3, 8, rand.New(rand.NewSource(28)))
	res := RunEpisode(a, env, 20, false)
	if res.Steps != 20 || !res.Done {
		t.Errorf("episode: %+v", res)
	}
	stats := EvaluateAgent(a, env, 3, 20)
	if stats.Steps != 60 {
		t.Errorf("eval steps = %d, want 60", stats.Steps)
	}
	if stats.Min > stats.Avg || stats.Avg > stats.Max {
		t.Errorf("stats ordering broken: %+v", stats)
	}
	if d := AvgInferenceTime(a, env, 10); d <= 0 {
		t.Errorf("AvgInferenceTime = %v", d)
	}
	if d := AvgInferenceTime(a, env, 0); d != 0 {
		t.Errorf("AvgInferenceTime(0) = %v", d)
	}
}

func TestEvaluateAgentEmpty(t *testing.T) {
	env := newToyEnv(29)
	a := NewBPDQN(fastCfg(), env.Spec(), 3, 8, rand.New(rand.NewSource(30)))
	stats := EvaluateAgent(a, env, 0, 20)
	if stats.Steps != 0 || stats.Min != 0 || stats.Max != 0 {
		t.Errorf("empty eval stats = %+v", stats)
	}
}

func TestStateSpec(t *testing.T) {
	spec := DefaultStateSpec()
	if spec.Dim() != 52 || spec.HLen() != 28 {
		t.Errorf("spec dims: Dim=%d HLen=%d, want 52/28", spec.Dim(), spec.HLen())
	}
}

func TestAgentCheckpointRoundTrip(t *testing.T) {
	env := newToyEnv(60)
	src := NewBPDQN(fastCfg(), env.Spec(), 3, 8, rand.New(rand.NewSource(61)))
	var buf bytes.Buffer
	if err := nn.Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := NewBPDQN(fastCfg(), env.Spec(), 3, 8, rand.New(rand.NewSource(62)))
	if err := nn.Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	state := env.Reset()
	a := src.Act(state, false)
	b := dst.Act(state, false)
	if a.B != b.B || a.A != b.A {
		t.Errorf("restored agent acts differently: %+v vs %+v", a, b)
	}
}

func TestPDDPGCheckpointRoundTrip(t *testing.T) {
	env := newToyEnv(63)
	src := NewPDDPG(fastCfg(), env.Spec(), 3, 8, rand.New(rand.NewSource(64)))
	var buf bytes.Buffer
	if err := nn.Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := NewPDDPG(fastCfg(), env.Spec(), 3, 8, rand.New(rand.NewSource(65)))
	if err := nn.Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	state := env.Reset()
	if a, b := src.Act(state, false), dst.Act(state, false); a.B != b.B || a.A != b.A {
		t.Error("restored P-DDPG acts differently")
	}
}
