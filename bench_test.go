package head_test

// The benchmark harness regenerates every measured artifact of the paper's
// evaluation section (Tables I–VII; Figures 1–6 are architecture diagrams
// with no measured series). Each bench prints the corresponding table rows
// once and then times one representative unit of the experiment so
// `go test -bench=. -benchmem` both reproduces the numbers and tracks the
// implementation's performance. Benchmarks run at the laptop Quick scale;
// use the cmd/ executables with -scale paper for the published settings.

import (
	"math/rand"
	"os"
	"sync"
	"testing"

	"head/internal/eval"
	"head/internal/experiments"
	"head/internal/head"
	"head/internal/ngsim"
	"head/internal/phantom"
	"head/internal/policy"
	"head/internal/predict"
	"head/internal/reward"
	"head/internal/rl"
	"head/internal/sensor"
	"head/internal/traffic"
	"head/internal/world"
)

// benchScale is the budget used by the table benches: smaller than Quick
// so the whole -bench=. sweep stays in minutes.
func benchScale() experiments.Scale {
	s := experiments.Quick()
	s.TrainEpisodes = 20
	s.TestEpisodes = 4
	s.MaxSteps = 120
	s.EpsDecay = 1500
	s.PredEpochs = 4
	s.DatasetRollouts = 1
	s.DatasetSteps = 20
	return s
}

// BenchmarkTableIEndToEnd regenerates Table I: the end-to-end comparison
// of IDM-LC, ACC-LC, DRL-SC, TP-BTS and HEAD.
func BenchmarkTableIEndToEnd(b *testing.B) {
	rows, err := experiments.TableI(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	experiments.PrintEndToEnd(os.Stdout, "Table I — End-to-End Performance (bench scale)", rows)
	// Timed unit: one evaluated IDM-LC episode.
	env := newBenchEnv(1)
	ctrl := policy.NewIDMLC(env.Cfg.Traffic.World)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.Run(1, 1, 1, nil, nil, nil, func(int) (head.Controller, *head.Env) { return ctrl, env })
	}
}

// BenchmarkTableIIAblation regenerates Table II: the HEAD-variant
// ablation study.
func BenchmarkTableIIAblation(b *testing.B) {
	rows, err := experiments.TableII(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	experiments.PrintEndToEnd(os.Stdout, "Table II — Ablation Study (bench scale)", rows)
	// Timed unit: one environment step through the full HEAD perception
	// pipeline.
	env := newBenchEnv(2)
	env.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if env.Done() {
			env.Reset()
		}
		env.Step(int(world.LaneKeep), 0)
	}
}

// BenchmarkTableIIIPredAccuracy regenerates Table III: MAE/MSE/RMSE of the
// four state predictors on the REAL substitute.
func BenchmarkTableIIIPredAccuracy(b *testing.B) {
	rows, err := experiments.TableIIIIV(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	os.Stdout.WriteString("Table III & IV — State Predictors (bench scale)\n")
	experiments.PrintPredRows(os.Stdout, rows)
	// Timed unit: one LST-GAT training batch.
	ds, model := benchPredictor(3)
	batch := ds.Samples[:min(16, ds.Len())]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.TrainBatch(batch)
	}
}

// BenchmarkTableIVPredEfficiency times the inference side of Table IV: one
// full parallel LST-GAT prediction (all six targets).
func BenchmarkTableIVPredEfficiency(b *testing.B) {
	ds, model := benchPredictor(4)
	g := ds.Samples[0].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Predict(g)
	}
}

// BenchmarkTableVRLEffectiveness regenerates Table V: MinR/MaxR/AvgR of
// P-QP, P-DDPG, P-DQN and BP-DQN.
func BenchmarkTableVRLEffectiveness(b *testing.B) {
	rows, err := experiments.TableVVI(benchScale())
	if err != nil {
		b.Fatal(err)
	}
	os.Stdout.WriteString("Table V & VI — PAMDP Solvers (bench scale)\n")
	experiments.PrintRLRows(os.Stdout, rows)
	// Timed unit: one BP-DQN training step (one Observe on a warm buffer).
	env := newBenchEnv(5)
	cfg := rl.DefaultPDQNConfig()
	cfg.Warmup = 32
	cfg.BatchSize = 32
	agent := rl.NewBPDQN(cfg, env.Spec(), env.AMax(), 32, rand.New(rand.NewSource(5)))
	// The env reuses its state buffer, so keep an owned copy of sᵗ (the
	// same protocol rl.Runner follows).
	state := append([]float64(nil), env.Reset()...)
	step := func() {
		act := agent.Act(state, true)
		next, r, done := env.Step(act.B, act.A)
		agent.Observe(rl.Transition{State: state, Action: act, Reward: r, Next: next, Done: done})
		if done {
			next = env.Reset()
		}
		state = append(state[:0], next...)
	}
	for i := 0; i < 40; i++ {
		step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkTableVMultiSeedSerial and ...Parallel time the same multi-seed
// Table V run (4 solvers × 2 seeds plus parallel test episodes and
// data-parallel predictor training) with the worker pool capped at one
// goroutine versus uncapped. The determinism layer guarantees both produce
// bit-identical tables, so the pair isolates pure scheduling overhead /
// speedup: on an N-core machine the parallel variant should approach N×
// faster (the units are embarrassingly parallel); on one core the two
// should match within noise.
func BenchmarkTableVMultiSeedSerial(b *testing.B)   { benchMultiSeed(b, 1) }
func BenchmarkTableVMultiSeedParallel(b *testing.B) { benchMultiSeed(b, 0) }

func benchMultiSeed(b *testing.B, workers int) {
	s := benchScale()
	s.TrainEpisodes = 6
	s.TestEpisodes = 2
	s.RLSeeds = 2
	s.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableVVI(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableVIRLInference times the inference side of Table VI: one
// greedy BP-DQN action selection.
func BenchmarkTableVIRLInference(b *testing.B) {
	env := newBenchEnv(6)
	agent := rl.NewBPDQN(rl.DefaultPDQNConfig(), env.Spec(), env.AMax(), 32, rand.New(rand.NewSource(6)))
	state := env.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Act(state, false)
	}
}

// BenchmarkTableVIIRewardGrid regenerates Table VII: the reward
// coefficient search (at a reduced per-point budget).
func BenchmarkTableVIIRewardGrid(b *testing.B) {
	s := benchScale()
	s.TrainEpisodes = 3
	s.TestEpisodes = 2
	rows, err := experiments.TableVII(s)
	if err != nil {
		b.Fatal(err)
	}
	os.Stdout.WriteString("Table VII — Reward Coefficient Search (bench scale)\n")
	experiments.PrintAxisResults(os.Stdout, rows)
	// Timed unit: one hybrid reward evaluation.
	cfg := reward.DefaultConfig()
	in := reward.Inputs{TTC: 2, TTCValid: true, V: 20, Accel: 1, PrevAccel: 0,
		RearExists: true, RearVNow: 20, RearVNext: 19}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Evaluate(in)
	}
}

// --- ablation benches for the design choices DESIGN.md calls out ------

// BenchmarkAblationOneStep supports the paper's one-step design argument:
// it compares the trained one-step model's error against the
// constant-velocity physics prior at the same horizon (the prior's error
// is what compounds under multi-step rollouts).
func BenchmarkAblationOneStep(b *testing.B) {
	ds, model := benchPredictor(7)
	train, test := ds.Split(0.8)
	predict.Train(model, train, predict.TrainConfig{Epochs: 6, BatchSize: 32}, rand.New(rand.NewSource(7)))
	learned := predict.Evaluate(model, test)
	physics := 0.0
	n := 0
	for _, s := range test.Samples {
		last := s.Graph.Steps[len(s.Graph.Steps)-1]
		for i := 0; i < phantom.NumSlots; i++ {
			if s.Mask[i] {
				continue
			}
			f := last[phantom.TargetNode(phantom.Slot(i))]
			// Constant relative velocity extrapolation.
			physics += abs(f[0]-s.Truth[i][0]) + abs(f[1]+f[2]*0.5-s.Truth[i][1]) + abs(f[2]-s.Truth[i][2])
			n += 3
		}
	}
	b.Logf("one-step MAE: learned %.3f vs constant-velocity prior %.3f", learned.MAE, physics/float64(n))
	g := test.Samples[0].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Predict(g)
	}
}

// BenchmarkAblationHorizonDecay regenerates the paper's Section III-A
// motivation for one-step prediction: prediction error grows with horizon
// under iterated (sequential) decoding, so only the first predicted state
// is reliable.
func BenchmarkAblationHorizonDecay(b *testing.B) {
	cfg := ngsim.DefaultConfig()
	cfg.Rollouts = 1
	cfg.StepsPerRollout = 20
	cfg.Horizon = 3
	ds, err := ngsim.Generate(cfg, rand.New(rand.NewSource(42)))
	if err != nil {
		b.Fatal(err)
	}
	ds.Shuffle(rand.New(rand.NewSource(43)))
	train, test := ds.Split(0.8)
	mcfg := predict.LSTGATConfig{AttnDim: 16, GATOut: 8, HiddenDim: 24, Z: 5, LR: 0.01}
	model := predict.NewLSTGAT(mcfg, rand.New(rand.NewSource(44)))
	predict.Train(model, train, predict.TrainConfig{Epochs: 6, BatchSize: 32}, rand.New(rand.NewSource(45)))
	var mae [3]float64
	var n [3]int
	for _, s := range test.Samples {
		preds := predict.Rollout(model, s.Graph, 3, 0.5)
		for i := 0; i < phantom.NumSlots; i++ {
			if !s.Mask[i] {
				for d := 0; d < 3; d++ {
					mae[0] += abs(preds[0][i][d] - s.Truth[i][d])
				}
				n[0] += 3
			}
			for h := 0; h < len(s.TruthK) && h+1 < len(preds); h++ {
				if s.MaskK[h][i] {
					continue
				}
				for d := 0; d < 3; d++ {
					mae[h+1] += abs(preds[h+1][i][d] - s.TruthK[h][i][d])
				}
				n[h+1] += 3
			}
		}
	}
	for h := 0; h < 3; h++ {
		if n[h] > 0 {
			b.Logf("horizon %d: MAE %.3f", h+1, mae[h]/float64(n[h]))
		}
	}
	g := test.Samples[0].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predict.Rollout(model, g, 3, 0.5)
	}
}

// BenchmarkAblationAggregator quantifies the graph attention mechanism:
// it trains LST-GAT with learned importance scores and with uniform mean
// aggregation and reports both errors (the design choice of Equation
// (10)).
func BenchmarkAblationAggregator(b *testing.B) {
	ds, _ := benchPredictor(8)
	train, test := ds.Split(0.8)
	tc := predict.TrainConfig{Epochs: 6, BatchSize: 32}
	for _, uniform := range []bool{false, true} {
		cfg := predict.LSTGATConfig{AttnDim: 16, GATOut: 8, HiddenDim: 24, Z: 5, LR: 0.01,
			UniformAttention: uniform}
		m := predict.NewLSTGAT(cfg, rand.New(rand.NewSource(8)))
		predict.Train(m, train, tc, rand.New(rand.NewSource(9)))
		met := predict.Evaluate(m, test)
		b.Logf("uniform=%t: MAE %.3f RMSE %.3f", uniform, met.MAE, met.RMSE)
	}
	cfg := predict.LSTGATConfig{AttnDim: 16, GATOut: 8, HiddenDim: 24, Z: 5, LR: 0.01}
	m := predict.NewLSTGAT(cfg, rand.New(rand.NewSource(8)))
	g := ds.Samples[0].Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(g)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkAblationPhantom compares phantom construction against
// zero-padding (the w/o-PVC design choice) at the perception level: how
// much of the graph is informative under each strategy.
func BenchmarkAblationPhantom(b *testing.B) {
	builder := phantom.NewBuilder(phantom.Config{Lanes: 6, LaneWidth: 3.2, R: 100, Dt: 0.5})
	sens := sensor.New(sensor.DefaultConfig(), 3.2)
	cfg := traffic.DefaultConfig()
	cfg.World.RoadLength = 600
	cfg.Density = 120
	sim, err := traffic.New(cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		b.Fatal(err)
	}
	sim.AV.State = world.State{Lat: 3, Lon: 300, V: 20}
	for i := 0; i < sensor.DefaultConfig().Z; i++ {
		sens.Observe(sim.AV.State, sim.Vehicles)
		sim.Step(world.Maneuver{B: world.LaneKeep, A: 0})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.Build(sens.History())
	}
}

// BenchmarkSimulatorStep times one microscopic traffic simulation step at
// the paper's density on a 1 km road (the substrate everything else runs
// on).
func BenchmarkSimulatorStep(b *testing.B) {
	cfg := traffic.DefaultConfig()
	cfg.World.RoadLength = 1000
	benchSimulatorStep(b, cfg)
}

// BenchmarkSimulatorStepPaper times one step of the paper's full scene:
// 3 km, six lanes, 180 veh/km (539 vehicles).
func BenchmarkSimulatorStepPaper(b *testing.B) {
	benchSimulatorStep(b, traffic.DefaultConfig())
}

func benchSimulatorStep(b *testing.B, cfg traffic.Config) {
	sim, err := traffic.New(cfg, rand.New(rand.NewSource(10)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step(world.Maneuver{B: world.LaneKeep, A: 0})
	}
}

// --- helpers ----------------------------------------------------------

func newBenchEnv(seed int64) *head.Env {
	cfg := head.DefaultEnvConfig()
	cfg.Traffic.World.RoadLength = 500
	cfg.Traffic.Density = 100
	cfg.MaxSteps = 120
	return head.NewEnv(cfg, nil, rand.New(rand.NewSource(seed)))
}

var (
	benchDSOnce sync.Once
	benchDS     *ngsim.Dataset
)

func benchPredictor(seed int64) (*ngsim.Dataset, *predict.LSTGAT) {
	benchDSOnce.Do(func() {
		cfg := ngsim.DefaultConfig()
		cfg.Rollouts = 1
		cfg.StepsPerRollout = 20
		ds, err := ngsim.Generate(cfg, rand.New(rand.NewSource(99)))
		if err != nil {
			panic(err)
		}
		benchDS = ds
	})
	cfg := predict.LSTGATConfig{AttnDim: 16, GATOut: 8, HiddenDim: 24, Z: 5, LR: 0.01}
	return benchDS, predict.NewLSTGAT(cfg, rand.New(rand.NewSource(seed)))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
