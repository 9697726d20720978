package experiments

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"head/internal/head"
	"head/internal/nn"
	"head/internal/obs"
	"head/internal/predict"
	"head/internal/rl"
)

// Checkpoint file names shared by every tool that saves or loads trained
// models (cmd/headtrain writes them, cmd/headserve loads them).
const (
	CkptLSTGAT = "lstgat.ckpt"
	CkptBPDQN  = "bpdqn.ckpt"
)

// EnvConfig derives the HEAD environment configuration from the scale —
// the exported form of the derivation every experiment uses internally, so
// external tools (training, serving) agree with the tables about geometry.
func (s Scale) EnvConfig() head.EnvConfig { return s.envConfig() }

// RLConfig derives the PAMDP solver configuration from the scale.
func (s Scale) RLConfig() rl.PDQNConfig { return s.rlConfig() }

// PredictorConfig derives the LST-GAT architecture from the scale. Saving
// and loading construct identical networks from it, which nn.Load requires.
func (s Scale) PredictorConfig() predict.LSTGATConfig {
	cfg := predict.DefaultLSTGATConfig()
	cfg.AttnDim, cfg.GATOut, cfg.HiddenDim = s.PredHidden, s.PredGATOut, s.PredHidden
	cfg.LR = s.PredLR
	return cfg
}

// SaveModule checkpoints one module to path.
func SaveModule(path string, m nn.Module) error {
	return obs.WriteFileAtomic(path, func(w io.Writer) error {
		return nn.Save(w, m)
	})
}

// LoadModule restores a checkpoint written by SaveModule into an
// identically constructed module.
func LoadModule(path string, m nn.Module) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return nn.Load(f, m)
}

// LoadCheckpoint reconstructs the trained LST-GAT + BP-DQN pair from a
// headtrain checkpoint directory: models are built from the scale-derived
// configurations (which must match the training scale) and the saved
// parameters are loaded over them.
func LoadCheckpoint(s Scale, dir string) (*predict.LSTGAT, *rl.PDQN, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	predictor := predict.NewLSTGAT(s.PredictorConfig(), rng)
	if err := LoadModule(filepath.Join(dir, CkptLSTGAT), predictor); err != nil {
		return nil, nil, err
	}
	cfg := s.EnvConfig()
	agent := rl.NewBPDQN(s.RLConfig(), rl.DefaultStateSpec(), cfg.Traffic.World.AMax, s.RLHidden, rng)
	if err := LoadModule(filepath.Join(dir, CkptBPDQN), agent); err != nil {
		return nil, nil, err
	}
	return predictor, agent, nil
}
