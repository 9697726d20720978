package predict

import (
	"math"
	"math/rand"
	"testing"

	"head/internal/phantom"
)

// TestPredictBatchBitIdentity is the model-level batch-of-one contract:
// for a random B in 1..9 and random orderings, PredictBatch over B graphs
// must reproduce each graph's Predict (a one-graph batch) byte-for-byte,
// and interleaving B-graph and one-graph calls on one model instance must
// not perturb either.
func TestPredictBatchBitIdentity(t *testing.T) {
	if len(smallDS.Samples) < 3 {
		t.Fatalf("dataset too small: %d samples", len(smallDS.Samples))
	}
	m := tinyLSTGAT(31)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(9)
		gs := make([]*phantom.Graph, n)
		for i := range gs {
			gs[i] = smallDS.Samples[rng.Intn(len(smallDS.Samples))].Graph
		}
		want := make([]Prediction, n)
		for i, g := range gs {
			want[i] = m.Predict(g)
		}
		got := make([]Prediction, n)
		m.PredictBatch(gs, got)
		for i := range gs {
			for s := 0; s < phantom.NumSlots; s++ {
				for d := 0; d < OutputDim; d++ {
					if math.Float64bits(want[i][s][d]) != math.Float64bits(got[i][s][d]) {
						t.Fatalf("trial %d graph %d slot %d dim %d: one-graph %v batched %v",
							trial, i, s, d, want[i][s][d], got[i][s][d])
					}
				}
			}
		}
		// Predict after a batched pass must be untouched.
		again := m.Predict(gs[0])
		for s := 0; s < phantom.NumSlots; s++ {
			for d := 0; d < OutputDim; d++ {
				if math.Float64bits(want[0][s][d]) != math.Float64bits(again[s][d]) {
					t.Fatalf("trial %d: Predict perturbed after PredictBatch", trial)
				}
			}
		}
	}
}

// TestPredictBatchTrainInterleave pins that a batched inference pass
// between training steps does not change what training computes: gradients
// after forward+backward are a function of the inputs alone, so a model
// that ran PredictBatch mid-stream stays bit-identical to one that never
// did.
func TestPredictBatchTrainInterleave(t *testing.T) {
	a := tinyLSTGAT(32)
	b := tinyLSTGAT(32)
	batch := smallDS.Samples[:3]
	gs := []*phantom.Graph{smallDS.Samples[0].Graph, smallDS.Samples[1].Graph}
	out := make([]Prediction, len(gs))
	for step := 0; step < 3; step++ {
		la := a.TrainBatch(batch)
		b.PredictBatch(gs, out)
		lb := b.TrainBatch(batch)
		if math.Float64bits(la) != math.Float64bits(lb) {
			t.Fatalf("step %d: losses diverge with interleaved PredictBatch: %v vs %v", step, la, lb)
		}
	}
}
