package experiments

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"head/internal/eval"
	"head/internal/head"
	"head/internal/nn"
	"head/internal/obs/quality"
	"head/internal/parallel"
	"head/internal/predict"
	"head/internal/rl"
)

// EvaluateHEAD rolls the trained HEAD policy through the scale's test
// episodes over private replicas of the models: headtrain's evaluation,
// where environment ep draws from (Seed+1000, ep). A non-nil rec profiles
// every decision; the recorder's order-independent fold makes its
// baseline, like the returned Metrics, identical for every
// Workers/BatchEnvs value.
func EvaluateHEAD(s Scale, predictor *predict.LSTGAT, agent *rl.PDQN, rec *quality.Recorder) eval.Metrics {
	cfg := s.EnvConfig()
	rc := s.RLConfig()
	spec := rl.DefaultStateSpec()
	aMax := cfg.Traffic.World.AMax
	return eval.Run(s.TestEpisodes, s.BatchEnvs, s.Workers, s.Metrics, s.Trace, rec, func(ep int) (head.Controller, *head.Env) {
		env := head.NewEnv(cfg, predictor.Clone(), parallel.Rand(s.Seed+1000, int64(ep)))
		a := rl.NewBPDQN(rc, spec, aMax, s.RLHidden, rand.New(rand.NewSource(0)))
		nn.CopyParams(a, agent)
		return &head.AgentController{ControllerName: "HEAD", Agent: a}, env
	})
}

// ExportQualityBaseline writes the behavioral baseline rec profiled over
// the scale's test episodes (see EvaluateHEAD) into dir as
// quality_baseline.json (quality.BaselineFile), and returns it.
func ExportQualityBaseline(s Scale, dir, tool, scaleName string, rec *quality.Recorder) (*quality.Baseline, error) {
	b := rec.Baseline(quality.Baseline{
		Tool:       tool,
		Scale:      scaleName,
		Seed:       s.Seed,
		ConfigHash: s.ConfigHash(),
		Episodes:   s.TestEpisodes,
	})
	if b.Steps == 0 {
		return nil, fmt.Errorf("quality baseline: profiled no decisions over %d episodes", s.TestEpisodes)
	}
	return b, b.Write(filepath.Join(dir, quality.BaselineFile))
}
