package rl

import (
	"math/rand"

	"head/internal/nn"
	"head/internal/tensor"
)

// actionDim is P-DDPG's collapsed continuous action: three accelerations
// followed by three discrete-selection logits.
const actionDim = 2 * NumBehaviors

// PDDPG is the parameterized deep deterministic policy gradients baseline
// (Hausknecht & Stone): the parameterized action space is collapsed into
// one continuous vector — an acceleration per behavior plus a relaxed
// one-hot behavior selector — and a DDPG actor-critic learns over it. As
// the paper notes, this loses the association between each
// action-parameter and its discrete action.
type PDDPG struct {
	cfg              PDQNConfig
	spec             StateSpec
	aMax             float64
	actor, actorT    *nn.Sequential
	critic, criticT  *nn.Sequential
	actorTanh        *nn.Tanh
	actorTargetTanh  *nn.Tanh
	optActor, optCrt *nn.Adam
	buf              *Replay
	rng              *rand.Rand
	steps            int
	lastLoss         float64

	// steady-state scratch: the raw-action buffer returned via Action.Raw
	// (valid until the next Act; replay Push deep-copies it), cached matrix
	// headers, a per-call workspace, and train-step batch storage.
	rawBuf   []float64
	stIn     tensor.Matrix
	actMat   tensor.Matrix
	dScratch *tensor.Matrix
	batch    []Transition
	ws       tensor.Workspace
}

// NewPDDPG builds the P-DDPG baseline with hidden width h.
func NewPDDPG(cfg PDQNConfig, spec StateSpec, aMax float64, h int, rng *rand.Rand) *PDDPG {
	mkActor := func(name string) *nn.Sequential {
		return nn.NewSequential(
			nn.NewLinear(name+".l1", spec.Dim(), h, rng),
			&nn.ReLU{},
			nn.NewLinear(name+".l2", h, h, rng),
			&nn.ReLU{},
			nn.NewLinear(name+".l3", h, actionDim, rng),
		)
	}
	mkCritic := func(name string) *nn.Sequential {
		return nn.NewSequential(
			nn.NewLinear(name+".l1", spec.Dim()+actionDim, h, rng),
			&nn.ReLU{},
			nn.NewLinear(name+".l2", h, h, rng),
			&nn.ReLU{},
			nn.NewLinear(name+".l3", h, 1, rng),
		)
	}
	p := &PDDPG{
		cfg:             cfg,
		spec:            spec,
		aMax:            aMax,
		actor:           mkActor("pddpg.actor"),
		actorT:          mkActor("pddpg.actorT"),
		critic:          mkCritic("pddpg.critic"),
		criticT:         mkCritic("pddpg.criticT"),
		actorTanh:       &nn.Tanh{},
		actorTargetTanh: &nn.Tanh{},
		optActor:        nn.NewAdam(cfg.LR),
		optCrt:          nn.NewAdam(cfg.LR),
		buf:             NewReplay(cfg.ReplayCap),
		rng:             rng,
	}
	nn.CopyParams(p.actorT, p.actor)
	nn.CopyParams(p.criticT, p.critic)
	return p
}

// Name implements Agent.
func (p *PDDPG) Name() string { return "P-DDPG" }

// Epsilon implements EpsilonReporter: the current ε-greedy rate.
func (p *PDDPG) Epsilon() float64 { return p.cfg.Eps.At(p.steps) }

// ReplayLen implements ReplayReporter: the replay-buffer occupancy.
func (p *PDDPG) ReplayLen() int { return p.buf.Len() }

// LastLoss implements LossReporter: the mean squared TD error of the most
// recent critic minibatch (0 before the first training step).
func (p *PDDPG) LastLoss() float64 { return p.lastLoss }

// Params implements nn.Module over every network (online and target), so
// a trained agent can be checkpointed with nn.Save and restored with
// nn.Load into an identically constructed agent.
func (p *PDDPG) Params() []*nn.Param {
	ps := p.actor.Params()
	ps = append(ps, p.critic.Params()...)
	ps = append(ps, p.actorT.Params()...)
	return append(ps, p.criticT.Params()...)
}

// actorForward returns the bounded action vector: accelerations scaled to
// ±a′ and selector logits in (−1, 1). The result lives in the agent's
// workspace, valid until the next Act or trainStep resets it.
func (p *PDDPG) actorForward(net *nn.Sequential, tanh *nn.Tanh, state []float64) *tensor.Matrix {
	raw := net.Forward(viewInto(&p.stIn, 1, len(state), state))
	y := tanh.Forward(raw)
	out := p.ws.Get(1, actionDim)
	copy(out.Data, y.Data)
	for i := 0; i < NumBehaviors; i++ {
		out.Data[i] *= p.aMax
	}
	return out
}

// actorBackward propagates through the scaling and Tanh.
func (p *PDDPG) actorBackward(d *tensor.Matrix) {
	dd := p.ws.Get(d.Rows, d.Cols)
	copy(dd.Data, d.Data)
	for i := 0; i < NumBehaviors; i++ {
		dd.Data[i] *= p.aMax
	}
	p.actor.Backward(p.actorTanh.Backward(dd))
}

// criticForward evaluates Q(s, action).
func (p *PDDPG) criticForward(net *nn.Sequential, state []float64, action *tensor.Matrix) *tensor.Matrix {
	in := p.ws.Get(1, len(state)+actionDim)
	copy(in.Data[:len(state)], state)
	copy(in.Data[len(state):], action.Data)
	return net.Forward(in)
}

// Act implements Agent: the behavior is the argmax of the selector logits
// and the executed acceleration is the matching component.
func (p *PDDPG) Act(state []float64, explore bool) Action {
	p.ws.Reset()
	av := p.actorForward(p.actor, p.actorTanh, state)
	raw := growFloats(p.rawBuf, actionDim)
	p.rawBuf = raw
	copy(raw, av.Data)
	if explore {
		for i := 0; i < NumBehaviors; i++ {
			raw[i] = clamp(raw[i]+p.rng.NormFloat64()*p.cfg.NoiseStd, p.aMax)
		}
		for i := NumBehaviors; i < actionDim; i++ {
			raw[i] = clamp(raw[i]+p.rng.NormFloat64()*0.3, 1)
		}
	}
	b := 0
	best := raw[NumBehaviors]
	for i := 1; i < NumBehaviors; i++ {
		if raw[NumBehaviors+i] > best {
			best, b = raw[NumBehaviors+i], i
		}
	}
	if explore && p.rng.Float64() < p.cfg.Eps.At(p.steps) {
		b = p.rng.Intn(NumBehaviors)
	}
	return Action{B: b, A: raw[b], Raw: raw}
}

// Observe implements Agent.
func (p *PDDPG) Observe(tr Transition) {
	p.buf.Push(tr)
	p.steps++
	if p.steps < p.cfg.Warmup || p.buf.Len() < p.cfg.BatchSize {
		return
	}
	if p.cfg.TrainEvery > 1 && p.steps%p.cfg.TrainEvery != 0 {
		return
	}
	p.trainStep()
}

func (p *PDDPG) trainStep() {
	p.ws.Reset()
	p.batch = p.buf.SampleInto(p.batch, p.cfg.BatchSize, p.rng)
	batch := p.batch
	d := p.dScratch
	if d == nil {
		d = tensor.New(1, 1)
		p.dScratch = d
	}
	// Critic update.
	nn.ZeroGrads(p.critic)
	sqErr := 0.0
	for _, tr := range batch {
		y := tr.Reward
		if !tr.Done {
			aNext := p.actorForward(p.actorT, p.actorTargetTanh, tr.Next)
			y += p.cfg.Gamma * p.criticForward(p.criticT, tr.Next, aNext).At(0, 0)
		}
		act := viewInto(&p.actMat, 1, actionDim, tr.Action.Raw)
		qv := p.criticForward(p.critic, tr.State, act)
		diff := qv.At(0, 0) - y
		sqErr += diff * diff
		d.Set(0, 0, diff/float64(len(batch)))
		p.critic.Backward(d)
	}
	nn.ClipGradNorm(p.critic, p.cfg.ClipNorm)
	p.optCrt.Step(p.critic)
	p.lastLoss = sqErr / float64(len(batch))

	// Actor update: maximize Q(s, actor(s)).
	nn.ZeroGrads(p.actor)
	nn.ZeroGrads(p.critic)
	for _, tr := range batch {
		av := p.actorForward(p.actor, p.actorTanh, tr.State)
		p.criticForward(p.critic, tr.State, av)
		d.Set(0, 0, -1/float64(len(batch)))
		din := p.critic.Backward(d)
		dAct := p.ws.Get(1, actionDim)
		tensor.SliceColsInto(dAct, din, p.spec.Dim())
		p.actorBackward(dAct)
	}
	nn.ClipGradNorm(p.actor, p.cfg.ClipNorm)
	p.optActor.Step(p.actor)
	nn.ZeroGrads(p.critic)

	nn.SoftUpdate(p.actorT, p.actor, p.cfg.Tau)
	nn.SoftUpdate(p.criticT, p.critic, p.cfg.Tau)
}
