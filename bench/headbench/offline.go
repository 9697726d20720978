package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"head/internal/eval"
	"head/internal/experiments"
	"head/internal/head"
	"head/internal/ngsim"
	"head/internal/obs"
	"head/internal/obs/span"
	"head/internal/parallel"
	"head/internal/predict"
	"head/internal/rl"
	"head/internal/world"
)

// moreJobs reports whether another job of the last one's duration still
// ends within the run's measuring time. Offline workloads run whole jobs,
// at least one.
func moreJobs(start time.Time, last, seconds time.Duration) bool {
	return time.Since(start)+last <= seconds
}

// phaseSelf sums the self time of the spans directly under root, per span
// name, and returns the root spans' total and self time.
func phaseSelf(spans []span.Span, root string) (phases map[string]float64, total, self float64) {
	phases = map[string]float64{}
	for _, s := range spans {
		switch {
		case s.Name == root:
			total += float64(s.Dur)
			self += float64(s.Dur - s.Child)
		case s.Parent == root:
			phases[s.Name] += float64(s.Dur - s.Child)
		}
	}
	return phases, total, self
}

// perWorkItem reports every phase's self time per work item, in µs, under
// prefix, sorted by name.
func perWorkItem(prefix string, phases map[string]float64, items int64) []metric {
	names := make([]string, 0, len(phases))
	for n := range phases {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]metric, 0, len(names))
	for _, n := range names {
		out = append(out, metric{prefix + "." + n + "_us", phases[n] / 1e3 / float64(items), "us"})
	}
	return out
}

// --- sim-eval --------------------------------------------------------------

type evalInputs struct {
	s         experiments.Scale
	sz        *sizes
	cfg       head.EnvConfig
	seed      int64
	predictor *predict.LSTGAT
	agent     *rl.PDQN
	// ref is the serial evaluation (batchEnvs 1, workers 1) of the first
	// refEpisodes episodes, which the batched runner must reproduce.
	ref eval.Metrics
}

// prepareEval builds the models and the serial reference evaluation.
func prepareEval(seed int64, _ time.Duration, sz *sizes) (instance, error) {
	in := &evalInputs{s: experiments.Record(), sz: sz, seed: seed}
	in.cfg = in.s.EnvConfig()
	in.predictor, in.agent = newModels(in.s)
	in.ref = eval.RunEpisodesBatched(sz.refEpisodes, 1, 1, nil, nil, in.episode)
	return in, nil
}

// agentEpisode is the headtrain -load evaluation set-up: a private
// environment over a predictor replica and a private greedy controller per
// episode.
func (in *evalInputs) agentEpisode(ep int) (*head.AgentController, *head.Env) {
	env := head.NewEnv(in.cfg, in.predictor.Clone(), parallel.Rand(in.seed, int64(ep)))
	return &head.AgentController{ControllerName: "HEAD", Agent: cloneAgent(in.s, in.agent)}, env
}

func (in *evalInputs) episode(ep int) (head.Controller, *head.Env) { return in.agentEpisode(ep) }

// roundTimer times the lock-step rounds of one evaluation group: the
// runner calls DecideBatch once per round, so the time between two calls
// is one round (batched decision, every member's step, batched
// perception). The group reset before the first round is not a round.
type roundTimer struct {
	*head.AgentController
	last time.Time
	lat  *latencies
}

func (c *roundTimer) Reset() {
	c.AgentController.Reset()
	c.last = time.Time{}
}

func (c *roundTimer) DecideBatch(envs []*head.Env, out []world.Maneuver) {
	now := time.Now()
	if !c.last.IsZero() {
		c.lat.add(ms(now.Sub(c.last)))
	}
	c.last = now
	c.AgentController.DecideBatch(envs, out)
}

// measure runs 128-episode evaluations (eval.RunEpisodesBatched, groups of
// 8, all cores) for the measuring time; a traced pass runs one.
func (in *evalInputs) measure(seconds time.Duration, tr *span.Tracer) (pass, error) {
	var p pass
	var lat latencies
	var wall time.Duration
	var first eval.Metrics
	lane := tr.Lane("headbench")
	start := time.Now()
	for jobs := 0; ; jobs++ {
		reg := obs.NewRegistry()
		job := lane.Start("eval_job")
		t0 := time.Now()
		m := eval.RunEpisodesBatched(in.sz.evalEpisodes, in.sz.batchEnvs, 0, reg, tr, func(ep int) (head.Controller, *head.Env) {
			c, env := in.agentEpisode(ep)
			return &roundTimer{AgentController: c, lat: &lat}, env
		})
		d := time.Since(t0)
		job.End()
		steps := reg.Counter("eval.steps").Value()
		if jobs == 0 {
			first, p.opsPerJob = m, steps
		} else if !reflect.DeepEqual(m, first) || steps != p.opsPerJob {
			return p, fmt.Errorf("evaluation %d differs from the first (%d vs %d steps)", jobs, steps, p.opsPerJob)
		}
		p.work += steps
		wall += d
		if tr != nil || !moreJobs(start, d, seconds) {
			break
		}
	}
	if m := eval.RunEpisodesBatched(in.sz.refEpisodes, in.sz.batchEnvs, 0, nil, nil, in.episode); !reflect.DeepEqual(m, in.ref) {
		return p, fmt.Errorf("batched evaluation of episodes 0-%d differs from the serial one", in.sz.refEpisodes-1)
	}
	if first.Episodes != in.sz.evalEpisodes {
		return p, fmt.Errorf("evaluated %d episodes, want %d", first.Episodes, in.sz.evalEpisodes)
	}
	p.ops = lat.ms
	p.attempted = int64(first.Episodes) * (p.work / p.opsPerJob)
	p.throughput = float64(p.work) / wall.Seconds()
	d := newDigest()
	d.ints(int64(first.Episodes), int64(first.Finished), int64(first.Collisions))
	d.floats(first.AvgDTA, first.AvgDTC, first.AvgCA, first.MinTTCA, first.AvgVA, first.AvgJA, first.AvgDCA)
	p.digest = d.sum()
	p.extra = []metric{
		{"eval.steps", float64(p.opsPerJob), "count"},
		{"eval.episodes", float64(first.Episodes), "count"},
		{"eval.collisions", float64(first.Collisions), "count"},
	}
	if tr != nil {
		spans, _ := tr.Snapshot()
		phases, total, self := phaseSelf(spans, "step")
		p.unattributedPct = 100 * self / total
		p.extra = append(p.extra, perWorkItem("sim", phases, p.opsPerJob)...)
	}
	return p, nil
}

// --- train-predict ---------------------------------------------------------

type predictInputs struct {
	s     experiments.Scale
	seed  int64
	train *ngsim.Dataset
}

// preparePredict generates the REAL-substitute dataset at Record scale and
// splits off its training part, as Tables III/IV do.
func preparePredict(seed int64, _ time.Duration, sz *sizes) (instance, error) {
	in := &predictInputs{s: trainScale(sz), seed: seed}
	cfg := ngsim.DefaultConfig()
	cfg.Rollouts, cfg.StepsPerRollout = in.s.DatasetRollouts, in.s.DatasetSteps
	rng := parallel.Rand(seed, streamDataset)
	ds, err := ngsim.Generate(cfg, rng)
	if err != nil {
		return nil, err
	}
	ds.Shuffle(rng)
	in.train, _ = ds.Split(0.8)
	return in, nil
}

// trainScale is the Record scale with the benchmark's training budgets.
func trainScale(sz *sizes) experiments.Scale {
	s := experiments.Record()
	s.TrainEpisodes, s.RLWarmup = sz.rlEpisodes, sz.rlWarmup
	s.PredEpochs = sz.predEpochs
	s.DatasetRollouts, s.DatasetSteps = sz.datasetRollouts, sz.datasetSteps
	return s
}

// chunkTimer times LST-GAT gradient chunks. predict.Train computes every
// minibatch's gradients as chunks of predict.GradChunk samples, each one
// GradBatch call (forward and backward through the whole network) on a
// replica the trainer obtains from Replica; the timer wraps those replicas.
type chunkTimer struct {
	*predict.LSTGAT
	lat *latencies
}

func (m *chunkTimer) Replica() predict.DataParallel {
	return &chunkTimer{LSTGAT: m.LSTGAT.Clone(), lat: m.lat}
}

func (m *chunkTimer) GradBatch(batch []*ngsim.Sample) float64 {
	t0 := time.Now()
	loss := m.LSTGAT.GradBatch(batch)
	m.lat.add(ms(time.Since(t0)))
	return loss
}

// measure trains LST-GAT (12 epochs of batch 32 on all cores, the Table IV
// TCT) from the same initialization for the measuring time; a traced pass
// trains once. The latency sample is the gradient chunks; throughput is
// training samples per second of TCT.
func (in *predictInputs) measure(seconds time.Duration, tr *span.Tracer) (pass, error) {
	var p pass
	var lat latencies
	var tct time.Duration
	var first string
	lane := tr.Lane("predict")
	start := time.Now()
	for jobs := 0; ; jobs++ {
		local := &ngsim.Dataset{Samples: append([]*ngsim.Sample(nil), in.train.Samples...)}
		model := &chunkTimer{LSTGAT: predict.NewLSTGAT(in.s.PredictorConfig(), parallel.Rand(in.seed, streamModel)), lat: &lat}
		chunks := len(lat.ms)
		res := predict.Train(model, local, predict.TrainConfig{
			Epochs: in.s.PredEpochs, BatchSize: in.s.PredBatch, Workers: in.s.Workers, Trace: lane,
		}, parallel.Rand(in.seed, streamTrain))
		d := newDigest()
		d.module(model.LSTGAT)
		d.floats(res.EpochLosses...)
		sum := d.sum()
		for _, l := range res.EpochLosses {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				return p, fmt.Errorf("training loss %v is not finite", l)
			}
		}
		if len(res.EpochLosses) != in.s.PredEpochs {
			return p, fmt.Errorf("trained %d epochs, want %d", len(res.EpochLosses), in.s.PredEpochs)
		}
		if jobs == 0 {
			first, p.opsPerJob = sum, int64(len(lat.ms)-chunks)
		} else if sum != first {
			return p, fmt.Errorf("training run %d produced different parameters", jobs)
		}
		p.attempted += int64(len(lat.ms) - chunks)
		p.work += int64(local.Len() * in.s.PredEpochs)
		tct += res.TCT
		if tr != nil || !moreJobs(start, res.TCT, seconds) {
			break
		}
	}
	p.ops = lat.ms
	p.throughput = float64(p.work) / tct.Seconds()
	p.digest = first
	p.extra = []metric{
		{"predict.samples", float64(in.train.Len()), "count"},
		{"predict.chunks", float64(p.opsPerJob), "count"},
		{"predict.tct_s", tct.Seconds() / float64(p.attempted/p.opsPerJob), "s"},
	}
	if tr != nil {
		spans, _ := tr.Snapshot()
		_, total, self := phaseSelf(spans, "episode")
		p.unattributedPct = 100 * self / total
		var epochs, updates, fanouts []float64
		for _, s := range spans {
			switch s.Name {
			case "episode":
				epochs = append(epochs, float64(s.Dur)/1e9)
			case "minibatch_update":
				updates = append(updates, float64(s.Dur)/1e6)
			case "grad_fanout":
				fanouts = append(fanouts, float64(s.Dur)/1e6)
			}
		}
		p.extra = append(p.extra,
			metric{"predict.epoch_s", mean(epochs), "s"},
			metric{"predict.minibatch_update_ms", mean(updates), "ms"},
			metric{"predict.grad_fanout_ms", mean(fanouts), "ms"})
	}
	return p, nil
}

// --- train-rl --------------------------------------------------------------

type rlInputs struct {
	s    experiments.Scale
	seed int64
}

// prepareRL builds the training models once; every job rebuilds them from
// the same seed so that all jobs train identically.
func prepareRL(seed int64, _ time.Duration, sz *sizes) (instance, error) {
	in := &rlInputs{s: trainScale(sz), seed: seed}
	in.models()
	return in, nil
}

// models builds what headtrain's RL phase trains with: a Record-shape
// LST-GAT inside the environment and a fresh BP-DQN agent, all from the
// run seed.
func (in *rlInputs) models() (*head.Env, *rl.PDQN) {
	rng := rand.New(rand.NewSource(in.seed))
	env := head.NewEnv(in.s.EnvConfig(), predict.NewLSTGAT(in.s.PredictorConfig(), rng), rng)
	return env, rl.NewBPDQN(in.s.RLConfig(), env.Spec(), env.AMax(), in.s.RLHidden, rng)
}

// stepTimer times training steps: the loop steps the environment once per
// step, so the time between two Step returns is one step (replay sample
// and minibatch update, action selection, environment step with LST-GAT
// perception). Not timed: an episode's first step, which follows its
// Reset, and the warm-up steps that only fill the replay.
type stepTimer struct {
	*head.Env
	agent  rl.ReplayReporter
	warmup int
	last   time.Time
	steps  int64
	lat    *latencies
}

func (e *stepTimer) Reset() []float64 {
	e.last = time.Time{}
	return e.Env.Reset()
}

func (e *stepTimer) Step(b int, a float64) ([]float64, float64, bool) {
	next, r, done := e.Env.Step(b, a)
	now := time.Now()
	// The interval holds the Observe of the previous step, which trains
	// once the replay holds the warm-up's worth of transitions.
	if !e.last.IsZero() && e.agent.ReplayLen() >= e.warmup {
		e.lat.add(ms(now.Sub(e.last)))
	}
	e.last = now
	e.steps++
	return next, r, done
}

// measure trains BP-DQN for 150 episodes (rl.TrainObserved with the
// headtrain defaults) for the measuring time; a traced pass trains once.
func (in *rlInputs) measure(seconds time.Duration, tr *span.Tracer) (pass, error) {
	var p pass
	var lat latencies
	var tct time.Duration
	var first string
	cfg := in.s.RLConfig()
	start := time.Now()
	for jobs := 0; ; jobs++ {
		env, agent := in.models()
		te := &stepTimer{Env: env, agent: agent, warmup: max(cfg.Warmup, cfg.BatchSize), lat: &lat}
		res := rl.TrainObserved(agent, te, in.s.TrainEpisodes, in.s.MaxSteps, rl.Instrumentation{Trace: tr.Lane("train")})
		d := newDigest()
		d.module(agent)
		d.floats(res.EpisodeRewards...)
		sum := d.sum()
		for _, r := range res.EpisodeRewards {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return p, fmt.Errorf("episode reward %v is not finite", r)
			}
		}
		if jobs == 0 {
			first, p.opsPerJob = sum, te.steps
		} else if sum != first || te.steps != p.opsPerJob {
			return p, fmt.Errorf("training run %d differs from the first (%d vs %d steps)", jobs, te.steps, p.opsPerJob)
		}
		p.attempted += int64(len(res.EpisodeRewards))
		p.work += te.steps
		tct += res.TCT
		if tr != nil || !moreJobs(start, res.TCT, seconds) {
			break
		}
	}
	p.ops = lat.ms
	p.throughput = float64(p.work) / tct.Seconds()
	p.digest = first
	p.extra = []metric{
		{"train.rl_steps", float64(p.opsPerJob), "count"},
		{"train.tct_rl_s", tct.Seconds() / float64(p.work/p.opsPerJob), "s"},
	}
	if tr != nil {
		spans, _ := tr.Snapshot()
		phases, total, self := phaseSelf(spans, "step")
		p.unattributedPct = 100 * self / total
		p.extra = append(p.extra, perWorkItem("train", phases, p.opsPerJob)...)
	}
	return p, nil
}
