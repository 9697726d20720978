package rl

import (
	"math/rand"

	"head/internal/nn"
	"head/internal/obs/span"
	"head/internal/tensor"
)

// PDQNConfig holds the hyperparameters of the P-DQN optimization paradigm
// (Section IV-B). The paper uses γ = 0.9, replay 20,000, Adam lr = 0.001,
// batch 64, and soft target updates with τ = 0.01.
type PDQNConfig struct {
	Gamma      float64
	LR         float64
	Tau        float64
	BatchSize  int
	ReplayCap  int
	Warmup     int // environment steps before training begins
	TrainEvery int // train once per this many environment steps
	Eps        EpsSchedule
	NoiseStd   float64 // Gaussian exploration noise on accelerations, m/s²
	ClipNorm   float64
	// AlternatePhaseLen > 0 enables P-QP-style alternating optimization:
	// Q and x are updated in alternating phases of this many train steps
	// instead of jointly.
	AlternatePhaseLen int
	// PER enables prioritized experience replay (Schaul et al.) with
	// exponents PERAlpha (prioritization) and PERBeta (importance
	// sampling correction), an extension beyond the paper's uniform
	// replay.
	PER               bool
	PERAlpha, PERBeta float64
	// OU enables Ornstein–Uhlenbeck acceleration exploration noise
	// (temporally correlated, smoother than white noise) instead of
	// independent Gaussian draws.
	OU bool
}

// DefaultPDQNConfig returns the paper's training settings.
func DefaultPDQNConfig() PDQNConfig {
	return PDQNConfig{
		Gamma:      0.9,
		LR:         0.001,
		Tau:        0.01,
		BatchSize:  64,
		ReplayCap:  20000,
		Warmup:     200,
		TrainEvery: 1,
		Eps:        EpsSchedule{Start: 1.0, End: 0.05, DecaySteps: 5000},
		NoiseStd:   0.5,
		ClipNorm:   5,
	}
}

// PDQN is the P-DQN optimization paradigm with pluggable x/Q networks: with
// branched networks it is the paper's BP-DQN, with shared single-branch
// networks it is vanilla P-DQN, and with AlternatePhaseLen set it becomes
// the P-QP alternating scheme.
type PDQN struct {
	name       string
	cfg        PDQNConfig
	aMax       float64
	x, xT      XNet // online and target actor networks
	qn, qT     QNet // online and target critic networks
	optX, optQ *nn.Adam
	buf        *Replay
	bufP       *PrioritizedReplay
	ou         *OUNoise
	rng        *rand.Rand
	steps      int
	trainSteps int
	lastLoss   float64
	trace      *span.Lane

	// steady-state scratch: the one-state batch that Act passes to the
	// networks, the action-parameter buffer returned via Action.Raw (valid
	// until the next Act; replay Push deep-copies it), cached matrix
	// headers, train-step batch storage, one chunk's states, and a
	// workspace for its action parameters and loss gradient.
	one        [1][]float64
	rawBuf     []float64
	rawMat     tensor.Matrix
	batch      []Transition
	perIdxs    []int
	perWeights []float64
	tdErrs     []float64
	states     [][]float64
	ws         tensor.Workspace

	// batched execution engine state: batch width (≤ 1 disables the
	// replay prefetch), the action-parameter arena backing
	// SelectActionBatch results, target-y scratch, and the replay prefetch
	// pipeline (lazily started).
	batchEnvs   int
	batchRaw    []float64
	batchRawMat tensor.Matrix
	ys          []float64
	sampleIdx   []int
	pf          *prefetcher
}

// NewPDQN assembles an agent from freshly constructed online and target
// networks. The two pairs must be architecturally identical; the target
// networks are synchronized to the online ones at construction.
func NewPDQN(name string, cfg PDQNConfig, aMax float64,
	x, xTarget XNet, q, qTarget QNet, rng *rand.Rand) *PDQN {
	nn.CopyParams(xTarget, x)
	nn.CopyParams(qTarget, q)
	p := &PDQN{
		name: name,
		cfg:  cfg,
		aMax: aMax,
		x:    x,
		qn:   q,
		xT:   xTarget,
		qT:   qTarget,
		optX: nn.NewAdam(cfg.LR),
		optQ: nn.NewAdam(cfg.LR),
		rng:  rng,
	}
	if cfg.PER {
		alpha := cfg.PERAlpha
		if alpha <= 0 {
			alpha = 0.6
		}
		p.bufP = NewPrioritizedReplay(cfg.ReplayCap, alpha)
	} else {
		p.buf = NewReplay(cfg.ReplayCap)
	}
	if cfg.OU {
		p.ou = NewOUNoise(NumBehaviors, 0.15, cfg.NoiseStd, rng)
	}
	return p
}

// NewBPDQN builds the paper's BP-DQN agent with branched networks of
// hidden width d.
func NewBPDQN(cfg PDQNConfig, spec StateSpec, aMax float64, d int, rng *rand.Rand) *PDQN {
	return NewPDQN("BP-DQN", cfg, aMax,
		NewBranchedX(spec, d, aMax, rng), NewBranchedX(spec, d, aMax, rng),
		NewBranchedQ(spec, d, rng), NewBranchedQ(spec, d, rng), rng)
}

// NewVanillaPDQN builds the vanilla P-DQN baseline with shared
// single-branch networks of hidden width h.
func NewVanillaPDQN(cfg PDQNConfig, spec StateSpec, aMax float64, h int, rng *rand.Rand) *PDQN {
	return NewPDQN("P-DQN", cfg, aMax,
		NewSharedX(spec, h, aMax, rng), NewSharedX(spec, h, aMax, rng),
		NewSharedQ(spec, h, rng), NewSharedQ(spec, h, rng), rng)
}

// NewPQP builds the P-QP baseline: shared networks optimized in
// alternating phases instead of jointly.
func NewPQP(cfg PDQNConfig, spec StateSpec, aMax float64, h int, rng *rand.Rand) *PDQN {
	if cfg.AlternatePhaseLen <= 0 {
		cfg.AlternatePhaseLen = 50
	}
	a := NewPDQN("P-QP", cfg, aMax,
		NewSharedX(spec, h, aMax, rng), NewSharedX(spec, h, aMax, rng),
		NewSharedQ(spec, h, rng), NewSharedQ(spec, h, rng), rng)
	return a
}

// Name implements Agent.
func (p *PDQN) Name() string { return p.name }

// Epsilon implements EpsilonReporter: the current ε-greedy rate.
func (p *PDQN) Epsilon() float64 { return p.cfg.Eps.At(p.steps) }

// ReplayLen implements ReplayReporter: the replay-buffer occupancy.
func (p *PDQN) ReplayLen() int {
	if p.bufP != nil {
		return p.bufP.Len()
	}
	return p.buf.Len()
}

// LastLoss implements LossReporter: the mean squared TD error of the most
// recent critic minibatch (0 before the first training step).
func (p *PDQN) LastLoss() float64 { return p.lastLoss }

// SetTrace implements span.Traceable: replay sampling and minibatch
// updates become phase spans on the lane. Nil detaches.
func (p *PDQN) SetTrace(l *span.Lane) { p.trace = l }

// Params implements nn.Module over every network (online and target), so
// a trained agent can be checkpointed with nn.Save and restored with
// nn.Load into an identically constructed agent.
func (p *PDQN) Params() []*nn.Param {
	ps := p.x.Params()
	ps = append(ps, p.qn.Params()...)
	ps = append(ps, p.xT.Params()...)
	return append(ps, p.qT.Params()...)
}

// Act implements Agent: the x network proposes one acceleration per
// behavior, the Q network scores them, and the policy takes the argmax —
// with ε-greedy behavior exploration and Gaussian acceleration noise
// during training.
func (p *PDQN) Act(state []float64, explore bool) Action {
	p.one[0] = state
	xout := p.x.Forward(p.one[:])
	raw := growFloats(p.rawBuf, NumBehaviors)
	p.rawBuf = raw
	copy(raw, xout.Data)
	if explore {
		if p.ou != nil {
			noise := p.ou.Sample()
			for i := range raw {
				raw[i] = clamp(raw[i]+noise[i], p.aMax)
			}
		} else {
			for i := range raw {
				raw[i] = clamp(raw[i]+p.rng.NormFloat64()*p.cfg.NoiseStd, p.aMax)
			}
		}
	}
	b := 0
	if explore && p.rng.Float64() < p.cfg.Eps.At(p.steps) {
		b = p.rng.Intn(NumBehaviors)
	} else {
		noisy := viewInto(&p.rawMat, 1, NumBehaviors, raw)
		qv := p.qn.Forward(p.one[:], noisy)
		b = qv.ArgmaxRow(0)
	}
	return Action{B: b, A: raw[b], Raw: raw}
}

// Observe implements Agent.
func (p *PDQN) Observe(tr Transition) {
	stored := 0
	if p.bufP != nil {
		p.bufP.Push(tr)
		stored = p.bufP.Len()
	} else {
		p.buf.Push(tr)
		stored = p.buf.Len()
	}
	p.steps++
	if tr.Done && p.ou != nil {
		p.ou.Reset()
	}
	if p.steps < p.cfg.Warmup || stored < p.cfg.BatchSize {
		return
	}
	if p.cfg.TrainEvery > 1 && p.steps%p.cfg.TrainEvery != 0 {
		return
	}
	p.trainStep()
}

// phase reports which networks train this step: joint mode trains both;
// alternating (P-QP) mode flips between Q-only and x-only phases.
func (p *PDQN) phase() (trainQ, trainX bool) {
	if p.cfg.AlternatePhaseLen <= 0 {
		return true, true
	}
	inQ := (p.trainSteps/p.cfg.AlternatePhaseLen)%2 == 0
	return inQ, !inQ
}

// trainStep performs one minibatch update of L2 (Equation (22)) and L3
// (Equation (23)), then soft-updates the target networks. The TD targets,
// the critic pass and the actor pass each run one forward and one backward
// per network over chunks of trainChunk transitions.
func (p *PDQN) trainStep() {
	var batch []Transition
	var perIdxs []int
	var perWeights []float64
	if p.buf != nil && p.batchEnvs > 1 {
		// Prefetch pipeline: draw the sample indices here — the rng stream
		// is identical to SampleInto's — then let the background stage
		// deep-copy the minibatch into the idle double buffer while this
		// goroutine clears gradients and grows scratch. The gathered batch
		// holds the same floats the aliasing SampleInto would have served,
		// so training is bit-identical to the unprefetched path.
		rs := p.trace.Start("replay_sample")
		p.sampleIdx = p.buf.SampleIndicesInto(p.sampleIdx, p.cfg.BatchSize, p.rng)
		rs.End()
		if p.pf == nil {
			p.pf = newPrefetcher()
		}
		p.pf.begin(p.buf, p.sampleIdx)
		nn.ZeroGrads(p.qn)
		p.tdErrs = growFloats(p.tdErrs, p.cfg.BatchSize)
		p.ys = growFloats(p.ys, p.cfg.BatchSize)
		pw := p.trace.Start("replay_prefetch")
		batch = p.pf.wait()
		pw.End()
	} else {
		rs := p.trace.Start("replay_sample")
		if p.bufP != nil {
			beta := p.cfg.PERBeta
			if beta <= 0 {
				beta = 0.4
			}
			p.batch, p.perIdxs, p.perWeights = p.bufP.SampleInto(
				p.batch, p.perIdxs, p.perWeights, p.cfg.BatchSize, beta, p.rng)
			batch, perIdxs, perWeights = p.batch, p.perIdxs, p.perWeights
		} else {
			p.batch = p.buf.SampleInto(p.batch, p.cfg.BatchSize, p.rng)
			batch = p.batch
		}
		rs.End()
	}
	mu := p.trace.Start("minibatch_update")
	defer mu.End()
	trainQ, trainX := p.phase()
	p.trainSteps++
	if trainQ {
		p.trainCritic(batch, perIdxs, perWeights)
	}
	if trainX {
		p.trainActor(batch)
	}
	nn.SoftUpdate(p.xT, p.x, p.cfg.Tau)
	nn.SoftUpdate(p.qT, p.qn, p.cfg.Tau)
}

// trainChunk is how many transitions of a minibatch pass through a
// network in one forward and one backward. The chunk-shaped workspaces
// grow with it: a Record-shape agent holds 338 KB of train-step scratch
// at 8 rows, 668 KB at 16 and 2.2 MB at 64, and 16 rows were no faster.
const trainChunk = 8

// chunkOf returns the chunk of batch that starts at lo: trainChunk
// transitions, or fewer at the end of a minibatch that is not a multiple
// of trainChunk.
func chunkOf(batch []Transition, lo int) []Transition {
	return batch[lo:min(lo+trainChunk, len(batch))]
}

// chunkStates gathers the State of every transition of chunk.
func (p *PDQN) chunkStates(chunk []Transition) [][]float64 {
	p.states = p.states[:0]
	for _, tr := range chunk {
		p.states = append(p.states, tr.State)
	}
	return p.states
}

// trainCritic is one minibatch step on L2 (Equation (22)), chunk by chunk.
// Each chunk's Backward adds its states' gradients one state at a time in
// minibatch order, so the update is bit-identical to one Backward per
// transition.
func (p *PDQN) trainCritic(batch []Transition, perIdxs []int, perWeights []float64) {
	nn.ZeroGrads(p.qn)
	p.tdErrs = growFloats(p.tdErrs, len(batch))
	tdErrs := p.tdErrs
	ys := p.targetValues(batch)
	sqErr := 0.0
	for lo := 0; lo < len(batch); lo += trainChunk {
		chunk := chunkOf(batch, lo)
		p.ws.Reset()
		raw := p.ws.Get(len(chunk), NumBehaviors)
		for r, tr := range chunk {
			copy(raw.Row(r), tr.Action.Raw)
		}
		qv := p.qn.Forward(p.chunkStates(chunk), raw)
		d := p.ws.GetZero(len(chunk), NumBehaviors)
		for r, tr := range chunk {
			k := lo + r
			diff := qv.At(r, tr.Action.B) - ys[k]
			tdErrs[k] = diff
			sqErr += diff * diff
			w := 1.0
			if perWeights != nil {
				w = perWeights[k]
			}
			d.Set(r, tr.Action.B, w*diff/float64(len(batch)))
		}
		p.qn.Backward(d)
	}
	nn.ClipGradNorm(p.qn, p.cfg.ClipNorm)
	p.optQ.Step(p.qn)
	p.lastLoss = sqErr / float64(len(batch))
	if p.bufP != nil {
		p.bufP.UpdatePriorities(perIdxs, tdErrs)
	}
}

// trainActor is one minibatch step on L3 (Equation (23)), chunk by chunk.
// The critic only passes ∂Q/∂x_out back and keeps its gradients.
func (p *PDQN) trainActor(batch []Transition) {
	nn.ZeroGrads(p.x)
	for lo := 0; lo < len(batch); lo += trainChunk {
		states := p.chunkStates(chunkOf(batch, lo))
		p.qn.Forward(states, p.x.Forward(states))
		// L3 = −Σ_b Q_b ⇒ dL3/dQ = −1 for every output.
		p.ws.Reset()
		d := p.ws.Get(len(states), NumBehaviors)
		d.Fill(-1 / float64(len(batch)))
		p.x.Backward(p.qn.ActionGrad(d))
	}
	nn.ClipGradNorm(p.x, p.cfg.ClipNorm)
	p.optX.Step(p.x)
}
