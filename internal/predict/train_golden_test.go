package predict

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"head/internal/ngsim"
	"head/internal/nn"
)

var updateGolden = flag.Bool("update", false, "rewrite the training golden hashes from the current code")

const trainGoldenPath = "testdata/golden_train.json"

// trainGolden pins the bytes of every predictor's checkpoint after a fixed
// training run, keyed by a case name.
type trainGolden struct {
	// GoArch pins the hashes to the architecture that recorded them:
	// libm and FMA contraction differ across ports.
	GoArch string            `json:"goarch"`
	SHA256 map[string]string `json:"sha256"`
}

// goldenEpochs is the length of every pinned training run.
const goldenEpochs = 3

// goldenDataset generates the pinned training set afresh, so no other
// test's shuffling of a shared dataset reaches the golden.
func goldenDataset(t *testing.T) *ngsim.Dataset {
	t.Helper()
	cfg := ngsim.DefaultConfig()
	cfg.Traffic.World.RoadLength = 500
	cfg.Traffic.Density = 120
	cfg.Rollouts = 2
	cfg.StepsPerRollout = 12
	cfg.EgosPerStep = 3
	cfg.WarmupSteps = 5
	ds, err := ngsim.Generate(cfg, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// trainBatches runs goldenEpochs epochs of shuffled batch-16 TrainBatch
// calls on ds.
func trainBatches(m Model, ds *ngsim.Dataset) {
	rng := rand.New(rand.NewSource(31))
	for epoch := 0; epoch < goldenEpochs; epoch++ {
		ds.Shuffle(rng)
		for off := 0; off < ds.Len(); off += 16 {
			end := off + 16
			if end > ds.Len() {
				end = ds.Len()
			}
			m.TrainBatch(ds.Samples[off:end])
		}
	}
}

func checkpointHash(t *testing.T, m nn.Module) string {
	t.Helper()
	var buf bytes.Buffer
	if err := nn.Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(h[:])
}

// TestTrainGolden pins the training arithmetic of every predictor: three
// epochs of TrainBatch for LST-GAT at the Record shape (48/12/48) and for
// each baseline at hidden 48, plus three epochs of the data-parallel
// Train for LST-GAT, whose chunk gradients reduce in a fixed order.
// Regenerate deliberately with
// `go test ./internal/predict -run TestTrainGolden -update`.
func TestTrainGolden(t *testing.T) {
	lstgat := LSTGATConfig{AttnDim: 48, GATOut: 12, HiddenDim: 48, Z: 5, LR: 0.01}
	base := BaselineConfig{HiddenDim: 48, LR: 0.01, Z: 5}
	cases := []struct {
		name  string
		model func(rng *rand.Rand) Model
	}{
		{"LST-GAT", func(rng *rand.Rand) Model { return NewLSTGAT(lstgat, rng) }},
		{"LSTM-MLP", func(rng *rand.Rand) Model { return NewLSTMMLP(base, rng) }},
		{"ED-LSTM", func(rng *rand.Rand) Model { return NewEDLSTM(base, rng) }},
		{"GAS-LED", func(rng *rand.Rand) Model { return NewGASLED(base, rng) }},
	}
	got := trainGolden{GoArch: runtime.GOARCH, SHA256: map[string]string{}}
	for _, c := range cases {
		m := c.model(rand.New(rand.NewSource(3)))
		trainBatches(m, goldenDataset(t))
		got.SHA256[c.name] = checkpointHash(t, m.(nn.Module))
	}
	m := NewLSTGAT(lstgat, rand.New(rand.NewSource(3)))
	Train(m, goldenDataset(t), TrainConfig{Epochs: goldenEpochs, BatchSize: 16, Workers: 2}, rand.New(rand.NewSource(31)))
	got.SHA256["LST-GAT/Train"] = checkpointHash(t, m)
	checkTrainGolden(t, got)
}

// checkTrainGolden compares got with the recorded file, or rewrites the
// file under -update.
func checkTrainGolden(t *testing.T, got trainGolden) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(trainGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trainGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %v", got.SHA256)
		return
	}
	data, err := os.ReadFile(trainGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to record): %v", err)
	}
	var want trainGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.GoArch != runtime.GOARCH {
		t.Skipf("golden recorded on %s, running on %s: float libm/FMA behavior is arch-specific", want.GoArch, runtime.GOARCH)
	}
	for name, w := range want.SHA256 {
		if got.SHA256[name] != w {
			t.Errorf("%s trained checkpoint diverged from the golden:\n  got  %s\n  want %s", name, got.SHA256[name], w)
		}
	}
	if len(got.SHA256) != len(want.SHA256) {
		t.Errorf("golden has %d cases, the test ran %d", len(want.SHA256), len(got.SHA256))
	}
}
