package predict

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"head/internal/ngsim"
	"head/internal/nn"
	"head/internal/phantom"
)

// smallDataset generates a compact REAL-substitute dataset once per test
// binary.
var smallDS = func() *ngsim.Dataset {
	cfg := ngsim.DefaultConfig()
	cfg.Traffic.World.RoadLength = 500
	cfg.Traffic.Density = 120
	cfg.Rollouts = 2
	cfg.StepsPerRollout = 12
	cfg.EgosPerStep = 3
	cfg.WarmupSteps = 5
	ds, err := ngsim.Generate(cfg, rand.New(rand.NewSource(99)))
	if err != nil {
		panic(err)
	}
	return ds
}()

func tinyLSTGAT(seed int64) *LSTGAT {
	cfg := LSTGATConfig{AttnDim: 12, GATOut: 12, HiddenDim: 12, Z: 5, LR: 0.005}
	return NewLSTGAT(cfg, rand.New(rand.NewSource(seed)))
}

func tinyBaseline() BaselineConfig {
	return BaselineConfig{HiddenDim: 12, LR: 0.005, Z: 5}
}

func allModels(seed int64) []Model {
	rng := rand.New(rand.NewSource(seed))
	return []Model{
		tinyLSTGAT(seed),
		NewLSTMMLP(tinyBaseline(), rng),
		NewEDLSTM(tinyBaseline(), rng),
		NewGASLED(tinyBaseline(), rng),
	}
}

func TestModelNames(t *testing.T) {
	want := []string{"LST-GAT", "LSTM-MLP", "ED-LSTM", "GAS-LED"}
	for i, m := range allModels(1) {
		if m.Name() != want[i] {
			t.Errorf("model %d name = %q, want %q", i, m.Name(), want[i])
		}
	}
}

func TestPredictShapesAndFiniteness(t *testing.T) {
	for _, m := range allModels(2) {
		p := m.Predict(smallDS.Samples[0].Graph)
		for i := 0; i < phantom.NumSlots; i++ {
			for d := 0; d < OutputDim; d++ {
				if math.IsNaN(p[i][d]) || math.IsInf(p[i][d], 0) {
					t.Errorf("%s: non-finite prediction %v", m.Name(), p[i])
				}
			}
		}
	}
}

func TestTrainBatchReducesLoss(t *testing.T) {
	for _, m := range allModels(3) {
		batch := smallDS.Samples[:16]
		first := m.TrainBatch(batch)
		var last float64
		for i := 0; i < 25; i++ {
			last = m.TrainBatch(batch)
		}
		if !(last < first) {
			t.Errorf("%s: loss did not decrease (%g -> %g)", m.Name(), first, last)
		}
	}
}

func TestTrainBatchEmpty(t *testing.T) {
	for _, m := range allModels(4) {
		if got := m.TrainBatch(nil); got != 0 {
			t.Errorf("%s: TrainBatch(nil) = %g, want 0", m.Name(), got)
		}
	}
}

func TestTrainImprovesAccuracy(t *testing.T) {
	train, test := smallDS.Split(0.8)
	m := tinyLSTGAT(5)
	before := Evaluate(m, test)
	Train(m, train, TrainConfig{Epochs: 6, BatchSize: 16}, rand.New(rand.NewSource(6)))
	after := Evaluate(m, test)
	if !(after.MAE < before.MAE) {
		t.Errorf("training did not improve MAE: %g -> %g", before.MAE, after.MAE)
	}
	// A trained one-step predictor should be decently accurate (the truth
	// moves only ~Δt·v_rel from the last observation).
	if after.MAE > 8 {
		t.Errorf("trained MAE %g unreasonably high", after.MAE)
	}
}

func TestEvaluateMetricsRelations(t *testing.T) {
	m := tinyLSTGAT(7)
	got := Evaluate(m, smallDS)
	if got.Count == 0 {
		t.Fatal("no unmasked targets evaluated")
	}
	if got.RMSE < got.MAE/2 {
		t.Errorf("RMSE %g implausibly below MAE %g", got.RMSE, got.MAE)
	}
	if math.Abs(got.RMSE*got.RMSE-got.MSE) > 1e-9*math.Max(1, got.MSE) {
		t.Errorf("RMSE² = %g != MSE %g", got.RMSE*got.RMSE, got.MSE)
	}
}

func TestEvaluateEmptyDataset(t *testing.T) {
	m := tinyLSTGAT(8)
	got := Evaluate(m, &ngsim.Dataset{})
	if got.Count != 0 || got.MAE != 0 {
		t.Errorf("empty evaluation = %+v", got)
	}
}

func TestTrainEarlyStopping(t *testing.T) {
	m := tinyLSTGAT(9)
	res := Train(m, smallDS, TrainConfig{Epochs: 50, BatchSize: 32, ConvergeTol: 0.5}, rand.New(rand.NewSource(10)))
	if len(res.EpochLosses) >= 50 {
		t.Errorf("early stopping never triggered: %d epochs", len(res.EpochLosses))
	}
	if res.TCT <= 0 {
		t.Error("TCT not recorded")
	}
}

func TestAvgInferenceTime(t *testing.T) {
	m := tinyLSTGAT(11)
	ds := &ngsim.Dataset{Samples: smallDS.Samples[:8]}
	if d := AvgInferenceTime(m, ds); d <= 0 {
		t.Errorf("AvgInferenceTime = %v", d)
	}
	if d := AvgInferenceTime(m, &ngsim.Dataset{}); d != 0 {
		t.Errorf("empty dataset AvgIT = %v, want 0", d)
	}
}

func TestScalerRoundTrip(t *testing.T) {
	s := defaultScaler()
	truth := [OutputDim]float64{-3.2, 42.5, -7.1}
	scaled := s.scaleTruth(truth)
	back := s.unscaleRow(scaled[:])
	for d := 0; d < OutputDim; d++ {
		if math.Abs(back[d]-truth[d]) > 1e-9 {
			t.Errorf("round trip dim %d: %g -> %g", d, truth[d], back[d])
		}
	}
}

func TestAVNodesMarked(t *testing.T) {
	if len(avNodes) != phantom.NumSlots {
		t.Fatalf("avNodes has %d entries, want %d", len(avNodes), phantom.NumSlots)
	}
	// C2.5 (front target's rear surrounder) is the AV.
	if !avNodes[phantom.SurrounderNode(phantom.Front, phantom.Rear)] {
		t.Error("front target's rear slot should be an AV node")
	}
}

func TestLSTGATParallelConsistency(t *testing.T) {
	// Predicting twice must give identical results (no hidden state leaks
	// between calls).
	m := tinyLSTGAT(12)
	g := smallDS.Samples[0].Graph
	a := m.Predict(g)
	b := m.Predict(g)
	if a != b {
		t.Error("repeated Predict differs")
	}
}

// TestTrainWorkerCountBitIdentity gates the data-parallel reduction: each
// chunk adds its replica's gradients into the master in chunk order, so
// Workers 1, 2, 3 and 8 must leave bit-identical LST-GAT weights. Batch
// size 20 cuts each batch into chunks of 8, 8 and 4, so with 2 or 3
// workers a later chunk can finish before an earlier one and must wait
// its turn. Run under -race, this also checks the hand-off.
func TestTrainWorkerCountBitIdentity(t *testing.T) {
	var want []float64
	for _, w := range []int{1, 2, 3, 8} {
		m := tinyLSTGAT(17)
		ds := &ngsim.Dataset{Samples: slices.Clone(smallDS.Samples)}
		Train(m, ds, TrainConfig{Epochs: 2, BatchSize: 20, Workers: w}, rand.New(rand.NewSource(18)))
		var got []float64
		for _, p := range m.Params() {
			got = append(got, p.W.Data...)
		}
		if want == nil {
			want = got
			continue
		}
		for i, v := range got {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("Workers %d: weight %d is %v, Workers 1 gives %v", w, i, v, want[i])
			}
		}
	}
}

func TestGASLEDSharedEncoderWeights(t *testing.T) {
	// Training GAS-LED must update its single shared encoder: parameter
	// count should be independent of the number of targets.
	rng := rand.New(rand.NewSource(13))
	m := NewGASLED(tinyBaseline(), rng)
	n := 0
	for _, p := range m.Params() {
		n += len(p.W.Data)
	}
	m2 := NewGASLED(tinyBaseline(), rng)
	n2 := 0
	for _, p := range m2.Params() {
		n2 += len(p.W.Data)
	}
	if n != n2 {
		t.Errorf("parameter counts differ: %d vs %d", n, n2)
	}
}

func TestLSTGATCheckpointRoundTrip(t *testing.T) {
	src := tinyLSTGAT(40)
	// Train briefly so weights are non-trivial.
	src.TrainBatch(smallDS.Samples[:8])
	var buf bytes.Buffer
	if err := nn.Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := tinyLSTGAT(41)
	if err := nn.Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	g := smallDS.Samples[0].Graph
	if src.Predict(g) != dst.Predict(g) {
		t.Error("restored predictor disagrees with saved predictor")
	}
}

// TestEvaluateBatchedBitIdentity gates the batched accuracy evaluation:
// EvaluateBatched must return byte-identical Metrics to Evaluate for every
// width, including widths that do not divide the sample count, and must
// fall back to the serial path for models without PredictBatch.
func TestEvaluateBatchedBitIdentity(t *testing.T) {
	m := tinyLSTGAT(12)
	want := Evaluate(m, smallDS)
	for _, be := range []int{1, 2, 3, 7, len(smallDS.Samples) + 5} {
		if got := EvaluateBatched(m, smallDS, be); got != want {
			t.Errorf("batchEnvs=%d metrics diverged:\nbatched %+v\nserial  %+v", be, got, want)
		}
	}
	base := NewLSTMMLP(tinyBaseline(), rand.New(rand.NewSource(4)))
	if got, want := EvaluateBatched(base, smallDS, 4), Evaluate(base, smallDS); got != want {
		t.Errorf("fallback path diverged: %+v vs %+v", got, want)
	}
}
