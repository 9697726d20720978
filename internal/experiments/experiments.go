// Package experiments reproduces the paper's evaluation section: one entry
// point per table (Tables I–VII), shared by the cmd/ executables and the
// repository's benchmark harness. Every experiment is scale-parameterized:
// the Paper preset matches the published settings, while Quick shrinks
// training budgets and scene sizes so the whole suite runs on a laptop in
// minutes. Relative orderings — who wins and by roughly what factor — are
// preserved at small scale; EXPERIMENTS.md records paper-vs-measured.
//
// The suite fans out over the internal/parallel worker pool: independent
// training runs (methods, variants, solvers × seeds, grid points) and
// evaluation episodes each form a parallel unit whose random streams are
// derived from (Scale.Seed, unit index) and whose results reduce in index
// order, so every table's metric columns are bit-identical for any
// Scale.Workers setting, including 1.
package experiments

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"head/internal/eval"
	"head/internal/head"
	"head/internal/ngsim"
	"head/internal/nn"
	"head/internal/obs"
	"head/internal/obs/quality"
	"head/internal/obs/span"
	"head/internal/parallel"
	"head/internal/policy"
	"head/internal/predict"
	"head/internal/reward"
	"head/internal/rl"
)

// Scale bundles every budget knob of the experiment suite.
type Scale struct {
	// Environment.
	RoadLength float64
	Density    float64
	MaxSteps   int

	// RL training and testing.
	TrainEpisodes int
	TestEpisodes  int
	RLHidden      int
	RLWarmup      int
	EpsDecay      int
	// RLSeeds is how many independent training runs Tables V/VI average
	// over (deep RL reward statistics are seed-sensitive at small scale).
	RLSeeds int

	// Prediction training and testing.
	PredHidden      int
	PredGATOut      int // LST-GAT context bottleneck width
	PredLR          float64
	PredEpochs      int
	PredBatch       int
	DatasetRollouts int
	DatasetSteps    int

	Seed int64
	// Workers bounds the suite's parallel fan-out (training runs,
	// evaluation episodes, gradient chunks); 0 means all cores. Every
	// random stream is derived from (Seed, unit index) and results reduce
	// in unit order, so the table metrics do not depend on this knob —
	// only wall-clock time does — and ConfigHash leaves it out.
	Workers int
	// BatchEnvs is the batched-execution width: evaluation episodes run in
	// lock-step groups of this size (head.Group), and training enables
	// the agent's out-of-band batch mechanisms (batched target-network
	// evaluation, replay prefetch). Like Workers it is a throughput knob
	// only — table bytes and checkpoints are bit-identical for every
	// value, which the golden test gates — and ConfigHash leaves it out.
	BatchEnvs int

	// Metrics and Progress attach run observability to every training and
	// evaluation loop the suite executes; both are optional (nil disables)
	// and strictly out of band — table output is bit-identical with or
	// without them, which TestParallelDeterminism continues to gate.
	Metrics  *obs.Registry
	Progress *obs.Progress
	// Trace is the span flight recorder: every training run and evaluation
	// episode the suite executes records hierarchical latency spans and
	// per-step decision records onto fresh lanes of it. Optional (nil
	// disables) and strictly out of band like the other sinks — table
	// output and checkpoints are bit-identical with tracing on, off, or
	// sampled, which the determinism tests gate.
	Trace *span.Tracer
	// Quality profiles the decisions of its method during evaluation into
	// behavioral-baseline histograms (internal/obs/quality). Optional (nil
	// disables) and out of band like the other sinks: the recorder is
	// write-only and its fold is order-independent, so table metrics stay
	// bit-identical and the exported baseline is byte-identical for every
	// Workers/BatchEnvs value.
	Quality *quality.Recorder
}

// ConfigHash hashes the scale's results-relevant configuration: it
// excludes the attached observability sinks and the Workers/BatchEnvs
// throughput knobs, so two runs with the same results-relevant knobs hash
// equal whether or not they were observed, traced, or quality-profiled,
// and at any parallel or batched width.
func (s Scale) ConfigHash() string {
	hs := s
	hs.Metrics, hs.Progress, hs.Trace, hs.Quality = nil, nil, nil, nil
	hs.Workers, hs.BatchEnvs = 0, 0
	return obs.Hash(hs)
}

// instrUnit bundles the scale's observability sinks for one rl training
// loop. Each call opens a fresh trace lane (nil tracer → nil lane), so
// concurrent units never share lane state.
func (s Scale) instrUnit(unit int64) rl.Instrumentation {
	return rl.Instrumentation{
		Metrics:   s.Metrics,
		Progress:  s.Progress,
		Trace:     s.Trace.Lane(fmt.Sprintf("train-%02d", unit)),
		BatchEnvs: s.BatchEnvs,
	}
}

// ObserveDefault is the CLI wiring shared by the cmd/ executables: it
// attaches the process-wide obs.Default registry to the scale and to the
// parallel pool, adds a stderr heartbeat when progress is set, starts the
// debug HTTP server (/metrics, /debug/pprof/*, /debug/vars, and — when
// tracing — /debug/trace) when addr is non-empty, and attaches the span
// flight recorder when traceOut is non-empty: traceOut names a directory
// that receives trace.json (Chrome trace-event JSON, Perfetto-loadable)
// and decisions.jsonl (per-step decision records), with traceSample the
// fraction of steps traced (0 or 1 = all). The returned server is nil
// when addr is empty and the caller owns Close; finish is never nil and
// must be called once after the run to write the trace artifacts.
func (s *Scale) ObserveDefault(progress bool, addr, traceOut string, traceSample float64) (*obs.Server, func() error, error) {
	s.Metrics = obs.Default
	if progress {
		s.Progress = obs.NewProgress(os.Stderr)
	}
	parallel.SetMetrics(obs.Default)
	finish := func() error { return nil }
	if traceOut != "" {
		if err := os.MkdirAll(traceOut, 0o755); err != nil {
			return nil, nil, err
		}
		df, err := os.Create(filepath.Join(traceOut, "decisions.jsonl"))
		if err != nil {
			return nil, nil, err
		}
		bw := bufio.NewWriter(df)
		s.Trace = span.New(span.Config{Sample: traceSample, Decisions: bw})
		tr := s.Trace
		finish = func() error {
			if err := bw.Flush(); err != nil {
				df.Close()
				return err
			}
			if err := df.Close(); err != nil {
				return err
			}
			return obs.WriteFileAtomic(filepath.Join(traceOut, "trace.json"), tr.WriteChrome)
		}
	}
	if addr == "" {
		return nil, finish, nil
	}
	var extra []obs.Endpoint
	if s.Trace != nil {
		extra = append(extra, obs.Endpoint{Path: "/debug/trace", Handler: s.Trace})
	}
	srv, err := obs.Serve(addr, obs.Default, extra...)
	if err != nil {
		return nil, nil, err
	}
	return srv, finish, nil
}

// Quick returns a laptop-scale preset (seconds to minutes per table).
func Quick() Scale {
	return Scale{
		RoadLength:      600,
		Density:         120,
		MaxSteps:        200,
		TrainEpisodes:   60,
		TestEpisodes:    8,
		RLHidden:        32,
		RLWarmup:        150,
		EpsDecay:        4000,
		RLSeeds:         1,
		PredHidden:      24,
		PredGATOut:      8,
		PredLR:          0.01,
		PredEpochs:      8,
		PredBatch:       32,
		DatasetRollouts: 2,
		DatasetSteps:    25,
		Seed:            7,
	}
}

// Record returns the scale used for the numbers recorded in
// EXPERIMENTS.md: large enough for the paper's relative orderings to be
// stable, small enough to run on one CPU core in tens of minutes.
func Record() Scale {
	return Scale{
		RoadLength:      1000,
		Density:         150,
		MaxSteps:        300,
		TrainEpisodes:   150,
		TestEpisodes:    20,
		RLHidden:        48,
		RLWarmup:        300,
		EpsDecay:        12000,
		RLSeeds:         3,
		PredHidden:      48,
		PredGATOut:      12,
		PredLR:          0.01,
		PredEpochs:      12,
		PredBatch:       32,
		DatasetRollouts: 4,
		DatasetSteps:    40,
		Seed:            7,
	}
}

// Paper returns the published settings (hours of CPU time).
func Paper() Scale {
	return Scale{
		RoadLength:      3000,
		Density:         180,
		MaxSteps:        1200,
		TrainEpisodes:   4000,
		TestEpisodes:    500,
		RLHidden:        64,
		RLWarmup:        1000,
		EpsDecay:        200000,
		RLSeeds:         3,
		PredHidden:      64,
		PredGATOut:      64,
		PredLR:          0.001,
		PredEpochs:      15,
		PredBatch:       64,
		DatasetRollouts: 20,
		DatasetSteps:    200,
		Seed:            7,
	}
}

// Random-stream tags. Each parallel unit derives one child seed per
// concern from (Scale.Seed, unit, tag), so sibling units — and sibling
// concerns inside a unit — never share a stream.
const (
	streamTrainEnv int64 = iota + 1
	streamAgent
	streamEval
	streamInfer
	streamModel
)

// unitSeed derives the seed of one stream inside parallel unit u.
func (s Scale) unitSeed(unit, stream int64) int64 {
	return parallel.Seed(parallel.Seed(s.Seed, unit), stream)
}

// unitRand returns a private RNG for one stream inside parallel unit u.
func (s Scale) unitRand(unit, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(s.unitSeed(unit, stream)))
}

// evalSeed is the shared base seed of the evaluation episode streams. It
// is deliberately NOT unit-dependent: every method, variant, and solver is
// tested on the same episode scenes (episode ep draws its environment from
// (evalSeed, ep)), which keeps the tables paired comparisons as in the
// original serial harness.
func (s Scale) evalSeed() int64 { return parallel.Seed(s.Seed, streamEval) }

// envConfig derives the HEAD environment configuration from the scale.
func (s Scale) envConfig() head.EnvConfig {
	cfg := head.DefaultEnvConfig()
	cfg.Traffic.World.RoadLength = s.RoadLength
	cfg.Traffic.Density = s.Density
	cfg.MaxSteps = s.MaxSteps
	return cfg
}

// rlConfig derives the PAMDP solver configuration from the scale.
func (s Scale) rlConfig() rl.PDQNConfig {
	cfg := rl.DefaultPDQNConfig()
	cfg.Warmup = s.RLWarmup
	cfg.Eps.DecaySteps = s.EpsDecay
	return cfg
}

// dataset generates the REAL-substitute dataset at this scale. Its scene
// parameters stay at the NGSIM-like defaults regardless of the end-to-end
// environment's: the paper trains LST-GAT on REAL and transfers it to the
// simulated environment, relying on the two distributions being similar.
func (s Scale) dataset(rng *rand.Rand) (*ngsim.Dataset, error) {
	cfg := ngsim.DefaultConfig()
	cfg.Rollouts = s.DatasetRollouts
	cfg.StepsPerRollout = s.DatasetSteps
	return ngsim.Generate(cfg, rng)
}

// TrainedPredictor trains an LST-GAT predictor for use inside HEAD
// environments.
func TrainedPredictor(s Scale, rng *rand.Rand) (*predict.LSTGAT, error) {
	return TrainedPredictorObserved(s, rng, nil)
}

// TrainedPredictorObserved is TrainedPredictor with a per-epoch callback
// (nil disables) on top of the scale's Metrics/Progress sinks. The sink is
// observation-only; the trained weights are identical with or without it.
func TrainedPredictorObserved(s Scale, rng *rand.Rand, epochSink func(epoch int, loss float64)) (*predict.LSTGAT, error) {
	ds, err := s.dataset(rng)
	if err != nil {
		return nil, err
	}
	ds.Shuffle(rng)
	train, _ := ds.Split(0.8)
	model := predict.NewLSTGAT(s.PredictorConfig(), rng)
	predict.Train(model, train, predict.TrainConfig{
		Epochs: s.PredEpochs, BatchSize: s.PredBatch, Workers: s.Workers,
		Metrics: s.Metrics, Progress: s.Progress, EpochSink: epochSink,
		Trace: s.Trace.Lane("predict"),
	}, rng)
	return model, nil
}

// trainHEADAgent trains the decision agent for a HEAD variant inside a
// private environment. The predictor must be a replica owned by this unit
// (nil for w/o-LST-GAT).
func (s Scale) trainHEADAgent(v head.Variant, predictor *predict.LSTGAT, unit int64) (rl.Agent, head.EnvConfig) {
	cfg := head.ApplyVariant(s.envConfig(), v)
	env := head.NewEnv(cfg, predictor, s.unitRand(unit, streamTrainEnv))
	agent := head.NewVariantAgent(v, s.rlConfig(), env.Spec(), env.AMax(), s.RLHidden, s.unitRand(unit, streamAgent))
	rl.TrainObserved(agent, env, s.TrainEpisodes, s.MaxSteps, s.instrUnit(unit))
	return agent, cfg
}

// evalController evaluates over s.TestEpisodes parallel episodes. Every
// episode gets a private environment (seeded from (s.evalSeed(), episode),
// with its own predictor replica) and a private controller from mkCtrl —
// trained models must be cloned per call, never shared across episodes.
func (s Scale) evalController(cfg head.EnvConfig, predictor *predict.LSTGAT, mkCtrl func(episode int) head.Controller) eval.Metrics {
	evalSeed := s.evalSeed()
	return eval.Run(s.TestEpisodes, s.BatchEnvs, s.Workers, s.Metrics, s.Trace, s.Quality, func(ep int) (head.Controller, *head.Env) {
		p := predictor
		if p != nil {
			p = p.Clone()
		}
		env := head.NewEnv(cfg, p, parallel.Rand(evalSeed, int64(ep)))
		return mkCtrl(ep), env
	})
}

// replicaController clones a trained variant agent into a private greedy
// controller for one evaluation episode. Construction randomness is
// irrelevant: every parameter is overwritten by the trained values.
func (s Scale) replicaController(name string, v head.Variant, trained rl.Agent, spec rl.StateSpec, aMax float64) head.Controller {
	c := head.NewVariantAgent(v, s.rlConfig(), spec, aMax, s.RLHidden, rand.New(rand.NewSource(0)))
	nn.CopyParams(c.(nn.Module), trained.(nn.Module))
	return &head.AgentController{ControllerName: name, Agent: c}
}

// TableI runs the end-to-end comparison of HEAD against IDM-LC, ACC-LC,
// DRL-SC, and TP-BTS, returning one metrics row per method. The five
// methods train and evaluate as parallel units.
func TableI(s Scale) ([]eval.Metrics, error) {
	predictor, err := TrainedPredictor(s, rand.New(rand.NewSource(s.Seed)))
	if err != nil {
		return nil, err
	}
	base := s.envConfig()
	world := base.Traffic.World
	spec := rl.DefaultStateSpec()
	rlCfg := s.rlConfig()

	methods := []func(unit int64) eval.Metrics{
		// Rule-based baselines need no training.
		func(unit int64) eval.Metrics {
			return s.evalController(base, predictor, func(int) head.Controller { return policy.NewIDMLC(world) })
		},
		func(unit int64) eval.Metrics {
			return s.evalController(base, predictor, func(int) head.Controller { return policy.NewACCLC(world) })
		},
		// DRL-SC trains its DQN in the same environment.
		func(unit int64) eval.Metrics {
			trainEnv := head.NewEnv(base, predictor.Clone(), s.unitRand(unit, streamTrainEnv))
			agent := policy.NewDRLSC(rlCfg, spec, world.AMax, s.RLHidden, s.unitRand(unit, streamAgent))
			rl.TrainObserved(agent, trainEnv, s.TrainEpisodes, s.MaxSteps, s.instrUnit(unit))
			return s.evalController(base, predictor, func(int) head.Controller {
				c := policy.NewDRLSC(rlCfg, spec, world.AMax, s.RLHidden, rand.New(rand.NewSource(0)))
				nn.CopyParams(c, agent)
				return c
			})
		},
		// TP-BTS searches over the perception outputs without training.
		func(unit int64) eval.Metrics {
			return s.evalController(base, predictor, func(int) head.Controller { return policy.NewTPBTS() })
		},
		// HEAD: BP-DQN over the full enhanced perception.
		func(unit int64) eval.Metrics {
			agent, cfg := s.trainHEADAgent(head.Full, predictor.Clone(), unit)
			m := s.evalController(cfg, predictor, func(int) head.Controller {
				return s.replicaController("HEAD", head.Full, agent, spec, world.AMax)
			})
			m.Method = "HEAD"
			return m
		},
	}
	return parallel.Map(context.Background(), len(methods), s.Workers, func(i int) (eval.Metrics, error) {
		return methods[i](int64(i)), nil
	})
}

// TableII runs the ablation study over the four HEAD variants plus the
// full framework, one parallel unit per variant.
func TableII(s Scale) ([]eval.Metrics, error) {
	predictor, err := TrainedPredictor(s, rand.New(rand.NewSource(s.Seed)))
	if err != nil {
		return nil, err
	}
	spec := rl.DefaultStateSpec()
	aMax := s.envConfig().Traffic.World.AMax
	variants := []head.Variant{
		head.WithoutPVC, head.WithoutLSTGAT, head.WithoutBPDQN, head.WithoutImpact, head.Full,
	}
	return parallel.Map(context.Background(), len(variants), s.Workers, func(i int) (eval.Metrics, error) {
		v := variants[i]
		p := predictor
		if v == head.WithoutLSTGAT {
			p = nil
		}
		var trainP *predict.LSTGAT
		if p != nil {
			trainP = p.Clone()
		}
		agent, cfg := s.trainHEADAgent(v, trainP, int64(i))
		m := s.evalController(cfg, p, func(int) head.Controller {
			return s.replicaController(v.String(), v, agent, spec, aMax)
		})
		m.Method = v.String()
		return m, nil
	})
}

// PredRow is one row of Tables III and IV.
type PredRow struct {
	Model predict.Metrics
	Name  string
	TCT   time.Duration
	AvgIT time.Duration
}

// TableIIIIV trains the four state predictors on the REAL substitute and
// reports accuracy (Table III) and efficiency (Table IV). The four models
// train as parallel units on private views of the same train/test split.
func TableIIIIV(s Scale) ([]PredRow, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	ds, err := s.dataset(rng)
	if err != nil {
		return nil, err
	}
	ds.Shuffle(rng)
	train, test := ds.Split(0.8)
	bc := predict.BaselineConfig{HiddenDim: s.PredHidden, LR: s.PredLR, Z: 5}
	gc := s.PredictorConfig()
	builders := []func(r *rand.Rand) predict.Model{
		func(r *rand.Rand) predict.Model { return predict.NewLSTMMLP(bc, r) },
		func(r *rand.Rand) predict.Model { return predict.NewEDLSTM(bc, r) },
		func(r *rand.Rand) predict.Model { return predict.NewGASLED(bc, r) },
		func(r *rand.Rand) predict.Model { return predict.NewLSTGAT(gc, r) },
	}
	tc := predict.TrainConfig{Epochs: s.PredEpochs, BatchSize: s.PredBatch, ConvergeTol: 0.01, Workers: s.Workers}
	return parallel.Map(context.Background(), len(builders), s.Workers, func(i int) (PredRow, error) {
		m := builders[i](s.unitRand(int64(i), streamModel))
		// Each unit shuffles a private view of the shared training split
		// (the samples themselves are read-only during training), and gets
		// a private copy of the train config with its own trace lane.
		local := &ngsim.Dataset{Samples: append([]*ngsim.Sample(nil), train.Samples...)}
		utc := tc
		utc.Trace = s.Trace.Lane(fmt.Sprintf("predict-%02d", i))
		res := predict.Train(m, local, utc, s.unitRand(int64(i), streamTrainEnv))
		return PredRow{
			Name:  m.Name(),
			Model: predict.EvaluateBatched(m, test, s.BatchEnvs),
			TCT:   res.TCT,
			AvgIT: predict.AvgInferenceTime(m, test),
		}, nil
	})
}

// RLRow is one row of Tables V and VI.
type RLRow struct {
	Name  string
	Stats rl.RewardStats
	TCT   time.Duration
	AvgIT time.Duration
}

// TableVVI trains the four PAMDP solvers inside the HEAD environment and
// reports reward statistics (Table V) and efficiency (Table VI). When
// Scale.RLSeeds > 1, each solver trains that many times from independent
// seeds and the statistics are averaged — the reward statistics of small
// deep-RL runs are seed-sensitive. Every (solver, seed) pair is one
// parallel unit; the per-seed results reduce in seed order.
func TableVVI(s Scale) ([]RLRow, error) {
	predictor, err := TrainedPredictor(s, rand.New(rand.NewSource(s.Seed)))
	if err != nil {
		return nil, err
	}
	base := s.envConfig()
	spec := rl.DefaultStateSpec()
	aMax := base.Traffic.World.AMax
	builders := []struct {
		name string
		mk   func(seed int64) rl.Agent
	}{
		{"P-QP", func(seed int64) rl.Agent {
			return rl.NewPQP(s.rlConfig(), spec, aMax, s.RLHidden, rand.New(rand.NewSource(seed)))
		}},
		{"P-DDPG", func(seed int64) rl.Agent {
			return rl.NewPDDPG(s.rlConfig(), spec, aMax, s.RLHidden, rand.New(rand.NewSource(seed)))
		}},
		{"P-DQN", func(seed int64) rl.Agent {
			return rl.NewVanillaPDQN(s.rlConfig(), spec, aMax, s.RLHidden, rand.New(rand.NewSource(seed)))
		}},
		{"BP-DQN", func(seed int64) rl.Agent {
			return rl.NewBPDQN(s.rlConfig(), spec, aMax, s.RLHidden, rand.New(rand.NewSource(seed)))
		}},
	}
	seeds := s.RLSeeds
	if seeds < 1 {
		seeds = 1
	}
	type unitResult struct {
		stats rl.RewardStats
		tct   time.Duration
		avgIT time.Duration
	}
	evalSeed := s.evalSeed()
	units, err := parallel.Map(context.Background(), len(builders)*seeds, s.Workers, func(u int) (unitResult, error) {
		b := builders[u/seeds]
		unit := int64(u)
		agent := b.mk(s.unitSeed(unit, streamAgent))
		trainEnv := head.NewEnv(base, predictor.Clone(), s.unitRand(unit, streamTrainEnv))
		res := rl.TrainObserved(agent, trainEnv, s.TrainEpisodes, s.MaxSteps, s.instrUnit(unit))
		stats := rl.EvaluateAgentParallel(s.TestEpisodes, s.MaxSteps, s.Workers, func(ep int) (rl.Agent, rl.Env) {
			replica := b.mk(0)
			nn.CopyParams(replica.(nn.Module), agent.(nn.Module))
			return replica, head.NewEnv(base, predictor.Clone(), parallel.Rand(evalSeed, int64(ep)))
		})
		inferEnv := head.NewEnv(base, predictor.Clone(), s.unitRand(unit, streamInfer))
		return unitResult{
			stats: stats,
			tct:   res.TCT,
			avgIT: rl.AvgInferenceTime(agent, inferEnv, 200),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]RLRow, 0, len(builders))
	for bi, b := range builders {
		var row RLRow
		row.Name = b.name
		for k := 0; k < seeds; k++ {
			u := units[bi*seeds+k]
			row.Stats.Min += u.stats.Min
			row.Stats.Max += u.stats.Max
			row.Stats.Avg += u.stats.Avg
			row.Stats.Steps += u.stats.Steps
			row.TCT += u.tct
			row.AvgIT += u.avgIT
		}
		row.Stats.Min /= float64(seeds)
		row.Stats.Max /= float64(seeds)
		row.Stats.Avg /= float64(seeds)
		row.TCT /= time.Duration(seeds)
		row.AvgIT /= time.Duration(seeds)
		rows = append(rows, row)
	}
	return rows, nil
}

// TableVII runs the reward coefficient search: each axis of Table VII is
// swept, scoring a coefficient vector by the average greedy test reward of
// a BP-DQN agent trained under it. Grid points are parallel units; every
// score call builds its own predictor replica and environments.
func TableVII(s Scale) ([]eval.AxisResult, error) {
	predictor, err := TrainedPredictor(s, rand.New(rand.NewSource(s.Seed)))
	if err != nil {
		return nil, err
	}
	score := func(w reward.Weights) float64 {
		cfg := s.envConfig()
		cfg.Reward.Weights = w
		env := head.NewEnv(cfg, predictor.Clone(), s.unitRand(0, streamTrainEnv))
		agent := rl.NewBPDQN(s.rlConfig(), env.Spec(), env.AMax(), s.RLHidden, s.unitRand(0, streamAgent))
		// Unit 0 for every grid point: score calls run concurrently, but
		// instrUnit opens a fresh lane per call, so sharing the label is
		// safe and keeps grid-point lanes grouped in the trace.
		rl.TrainObserved(agent, env, s.TrainEpisodes, s.MaxSteps, s.instrUnit(0))
		testEnv := head.NewEnv(cfg, predictor.Clone(), rand.New(rand.NewSource(s.evalSeed())))
		// Score under the default weights so coefficient vectors are
		// comparable (the trained behavior differs, the yardstick not).
		testEnv.Cfg.Reward.Weights = reward.DefaultWeights()
		return rl.EvaluateAgent(agent, testEnv, s.TestEpisodes, s.MaxSteps).Avg
	}
	return eval.SearchWeightsParallel(reward.DefaultWeights(), eval.PaperAxes(), s.Workers, score)
}

// --- report printing -------------------------------------------------

// PrintEndToEnd writes a Table I/II style report. The trailing collision
// column is not in the paper's tables (its footnote states no test
// collisions occurred); it is printed here because small-budget policies
// do collide, and hiding that would misrepresent the other columns.
func PrintEndToEnd(w io.Writer, title string, rows []eval.Metrics) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-18s %9s %9s %7s | %9s %9s %9s %9s | %5s\n",
		"Method", "AvgDT-A", "AvgDT-C", "Avg#-CA", "MinTTC-A", "AvgV-A", "AvgJ-A", "AvgD-CA", "Coll")
	for _, m := range rows {
		fmt.Fprintf(w, "%-18s %8.1fs %8.1fs %7.1f | %8.2fs %6.2fm/s %7.2f %8.2f | %2d/%2d\n",
			m.Method, m.AvgDTA, m.AvgDTC, m.AvgCA, m.MinTTCA, m.AvgVA, m.AvgJA, m.AvgDCA,
			m.Collisions, m.Episodes)
	}
}

// PrintPredRows writes a Table III/IV style report.
func PrintPredRows(w io.Writer, rows []PredRow) {
	fmt.Fprintf(w, "%-10s %8s %8s %8s | %10s %10s\n", "Model", "MAE", "MSE", "RMSE", "TCT", "AvgIT")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8.3f %8.3f %8.3f | %10v %10v\n",
			r.Name, r.Model.MAE, r.Model.MSE, r.Model.RMSE, r.TCT.Round(time.Millisecond), r.AvgIT.Round(time.Microsecond))
	}
}

// PrintRLRows writes a Table V/VI style report.
func PrintRLRows(w io.Writer, rows []RLRow) {
	fmt.Fprintf(w, "%-8s %8s %8s %8s | %10s %10s\n", "Method", "MinR", "MaxR", "AvgR", "TCT", "AvgIT")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %8.2f %8.2f %8.2f | %10v %10v\n",
			r.Name, r.Stats.Min, r.Stats.Max, r.Stats.Avg, r.TCT.Round(time.Millisecond), r.AvgIT.Round(time.Microsecond))
	}
}

// PrintAxisResults writes a Table VII style report.
func PrintAxisResults(w io.Writer, rows []eval.AxisResult) {
	fmt.Fprintf(w, "%-12s %6s %6s %6s %6s\n", "Coefficient", "Min", "Max", "Step", "Best")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %6.1f %6.1f %6.1f %6.1f\n",
			r.Axis.Name, r.Axis.Min, r.Axis.Max, r.Axis.Step, r.Best)
	}
}
