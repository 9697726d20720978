package head_test

// Zero-allocation guarantees of the compute core. These benches measure the
// steady-state hot paths after the workspace arenas have warmed up: the
// LST-GAT forward pass and training step, one greedy BP-DQN action
// selection, and one full environment step through the perception pipeline
// (sensor scan → phantom construction → LST-GAT inference → physics →
// reward). All four must report 0 allocs/op; CI's bench-alloc job enforces
// the ceiling via cmd/benchcheck.

import (
	"math/rand"
	"testing"

	"head/internal/head"
	"head/internal/predict"
	"head/internal/rl"
	"head/internal/world"
)

// BenchmarkLSTGATForward times one full parallel LST-GAT prediction on a
// warmed model: every intermediate lives in the model's workspace arena.
func BenchmarkLSTGATForward(b *testing.B) {
	ds, model := benchPredictor(11)
	g := ds.Samples[0].Graph
	model.Predict(g) // warm the workspace arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Predict(g)
	}
}

// BenchmarkLSTGATTrainBatch times one TrainBatch of 32 samples — forward,
// masked MSE, backward through the read-out, LSTM and GAT, clipping and
// one Adam step — on a warmed model.
func BenchmarkLSTGATTrainBatch(b *testing.B) {
	ds, model := benchPredictor(11)
	batch := ds.Samples[:32]
	model.TrainBatch(batch) // warm the workspaces and the Adam moments
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.TrainBatch(batch)
	}
}

// BenchmarkBPDQNSelectAction times one greedy action selection through the
// branched X- and Q-networks.
func BenchmarkBPDQNSelectAction(b *testing.B) {
	env := newBenchEnv(12)
	agent := rl.NewBPDQN(rl.DefaultPDQNConfig(), env.Spec(), env.AMax(), 32, rand.New(rand.NewSource(12)))
	state := append([]float64(nil), env.Reset()...)
	agent.Act(state, false) // warm the workspace arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Act(state, false)
	}
}

// BenchmarkEnvStep times one environment step through the full HEAD
// perception pipeline, LST-GAT inference included. Episode resets rebuild
// the traffic scene and are excluded from the measurement.
func BenchmarkEnvStep(b *testing.B) {
	cfg := head.DefaultEnvConfig()
	cfg.Traffic.World.RoadLength = 500
	cfg.Traffic.Density = 100
	cfg.MaxSteps = 120
	pcfg := predict.LSTGATConfig{AttnDim: 16, GATOut: 8, HiddenDim: 24, Z: 5, LR: 0.01}
	pred := predict.NewLSTGAT(pcfg, rand.New(rand.NewSource(13)))
	env := head.NewEnv(cfg, pred, rand.New(rand.NewSource(13)))
	// Warm every pool (sensor maps, phantom trajectories, workspaces, the
	// simulator's plan buffer) with one full episode.
	env.Reset()
	for !env.Done() {
		env.Step(int(world.LaneKeep), 0)
	}
	env.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if env.Done() {
			b.StopTimer()
			env.Reset()
			b.StartTimer()
		}
		env.Step(int(world.LaneKeep), 0)
	}
}
