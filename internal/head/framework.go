package head

import (
	"fmt"
	"io"
	"math/rand"

	"head/internal/ngsim"
	"head/internal/nn"
	"head/internal/predict"
	"head/internal/rl"
)

// FrameworkConfig assembles a complete HEAD stack: the environment, the
// LST-GAT perception model, and the BP-DQN decision agent.
type FrameworkConfig struct {
	Env     EnvConfig
	Predict predict.LSTGATConfig
	RL      rl.PDQNConfig
	// Hidden is the decision networks' per-branch hidden width.
	Hidden int
}

// DefaultFrameworkConfig returns the paper's architecture sizes.
func DefaultFrameworkConfig() FrameworkConfig {
	return FrameworkConfig{
		Env:     DefaultEnvConfig(),
		Predict: predict.DefaultLSTGATConfig(),
		RL:      rl.DefaultPDQNConfig(),
		Hidden:  64,
	}
}

// Framework is the assembled HEAD system: enhanced perception (inside the
// Env) plus the maneuver decision agent. It is the programmatic
// counterpart of Figure 1 and the object a downstream user trains, saves,
// loads, and deploys.
type Framework struct {
	Cfg       FrameworkConfig
	Predictor *predict.LSTGAT
	Agent     *rl.PDQN
}

// NewFramework constructs an untrained HEAD stack.
func NewFramework(cfg FrameworkConfig, rng *rand.Rand) *Framework {
	spec := rl.DefaultStateSpec()
	return &Framework{
		Cfg:       cfg,
		Predictor: predict.NewLSTGAT(cfg.Predict, rng),
		Agent:     rl.NewBPDQN(cfg.RL, spec, cfg.Env.Traffic.World.AMax, cfg.Hidden, rng),
	}
}

// TrainPerception fits the LST-GAT model on a REAL-style dataset
// (Section III), returning the per-epoch losses.
func (f *Framework) TrainPerception(ds *ngsim.Dataset, tc predict.TrainConfig, rng *rand.Rand) predict.TrainResult {
	return predict.Train(f.Predictor, ds, tc, rng)
}

// TrainDecision trains the BP-DQN agent for the given number of episodes
// inside a fresh environment built from the framework's configuration
// (Section IV), returning the per-episode rewards.
func (f *Framework) TrainDecision(episodes int, rng *rand.Rand) rl.TrainResult {
	env := f.NewEnv(rng)
	return rl.Train(f.Agent, env, episodes, f.Cfg.Env.MaxSteps)
}

// NewEnv builds an environment wired to the framework's perception model.
func (f *Framework) NewEnv(rng *rand.Rand) *Env {
	return NewEnv(f.Cfg.Env, f.Predictor, rng)
}

// Controller returns the greedy decision controller for evaluation.
func (f *Framework) Controller() Controller {
	return &AgentController{ControllerName: "HEAD", Agent: f.Agent}
}

// Save checkpoints both models.
func (f *Framework) Save(w io.Writer) error {
	if err := nn.Save(w, f.Predictor); err != nil {
		return fmt.Errorf("head: save predictor: %w", err)
	}
	if err := nn.Save(w, f.Agent); err != nil {
		return fmt.Errorf("head: save agent: %w", err)
	}
	return nil
}

// Load restores both models from a checkpoint written by Save into an
// identically configured framework.
func (f *Framework) Load(r io.Reader) error {
	if err := nn.Load(r, f.Predictor); err != nil {
		return fmt.Errorf("head: load predictor: %w", err)
	}
	if err := nn.Load(r, f.Agent); err != nil {
		return fmt.Errorf("head: load agent: %w", err)
	}
	return nil
}
