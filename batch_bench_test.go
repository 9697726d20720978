package head_test

// Benchmarks of the batched execution engine (head.Perception, head.Group
// and the PredictBatch/SelectActionBatch entry points underneath them). Each
// benchmark processes batchEnvs environments per op, so per-env cost is
// ns/op ÷ batchEnvs. Steady state must stay allocation-free: all
// batch-shaped intermediates come from the same workspace arenas as the
// batch-of-one passes, and CI's bench-alloc job holds all three at
// 0 allocs/op. Their speed is judged by the repository benchmark
// (bench/README.md): predict.lstgat_b8_us, rl.select_b8_us and
// rl.train_step_ms.

import (
	"math/rand"
	"testing"

	"head/internal/phantom"
	"head/internal/predict"
	"head/internal/rl"
)

// batchEnvs is the batch width CI measures; acceptance pins batch 8.
const batchEnvs = 8

// BenchmarkLSTGATForwardBatch times one batched LST-GAT prediction over
// eight graphs — the forward one head.Perception run makes for a
// lock-step group of eight.
func BenchmarkLSTGATForwardBatch(b *testing.B) {
	ds, model := benchPredictor(11)
	gs := make([]*phantom.Graph, batchEnvs)
	for i := range gs {
		gs[i] = ds.Samples[i%len(ds.Samples)].Graph
	}
	out := make([]predict.Prediction, batchEnvs)
	model.PredictBatch(gs, out) // warm the workspace arena at batch shapes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.PredictBatch(gs, out)
	}
}

// BenchmarkBPDQNSelectActionBatch times one batched greedy action
// selection over eight environment states.
func BenchmarkBPDQNSelectActionBatch(b *testing.B) {
	env := newBenchEnv(12)
	agent := rl.NewBPDQN(rl.DefaultPDQNConfig(), env.Spec(), env.AMax(), 32, rand.New(rand.NewSource(12)))
	states := make([][]float64, batchEnvs)
	state := env.Reset()
	for i := range states {
		states[i] = append([]float64(nil), state...)
	}
	acts := make([]rl.Action, batchEnvs)
	agent.SelectActionBatch(states, acts) // warm the workspace arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.SelectActionBatch(states, acts)
	}
}

// BenchmarkTrainStepPrefetch times one BP-DQN training step with the
// double-buffered replay prefetch pipeline enabled (batch-envs > 1 on the
// training side); BenchmarkTrainStep is the same step without it.
func BenchmarkTrainStepPrefetch(b *testing.B) { benchTrainStep(b, batchEnvs) }
