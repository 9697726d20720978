package rl

// Batched execution engine entry points of the agent: greedy action
// selection over several environments in one pair of network forwards, the
// batch-envs switch that enables the replay prefetch, and ordered
// shutdown.

// BatchAgent is an agent that can select greedy actions for several
// environments in one batched forward pass.
type BatchAgent interface {
	Agent
	// SelectActionBatch writes the greedy action for states[i] into
	// out[i]. No exploration, no rng consumption.
	SelectActionBatch(states [][]float64, out []Action)
}

// BatchConfigurable is an agent whose training loop has batch-width
// dependent machinery to enable and shut down.
type BatchConfigurable interface {
	// SetBatchEnvs declares how many environments feed the agent; > 1
	// enables the batched training machinery.
	SetBatchEnvs(n int)
	// Close releases background resources (idempotent).
	Close()
}

// SelectActionBatch implements BatchAgent: the greedy policy of
// Act(state, false) evaluated for all states in one x forward and one Q
// forward. Row i of the result is bit-identical to the greedy Act on
// states[i] — Act is the same forward pair over a batch of one — and no
// rng is consumed, so interleaving batched and single selection cannot
// perturb a seeded run.
//
// The returned Action.Raw slices alias one agent-owned arena and stay
// valid until the next SelectActionBatch call (Act uses a separate buffer
// and replay Push deep-copies, so the usual hot-path reuse rules apply).
func (p *PDQN) SelectActionBatch(states [][]float64, out []Action) {
	if len(out) < len(states) {
		panic("rl: SelectActionBatch out shorter than states")
	}
	p.batchRaw = growFloats(p.batchRaw, len(states)*NumBehaviors)
	xout := p.x.Forward(states)
	copy(p.batchRaw, xout.Data)
	rawView := viewInto(&p.batchRawMat, len(states), NumBehaviors, p.batchRaw)
	qv := p.qn.Forward(states, rawView)
	for i := range states {
		b := qv.ArgmaxRow(i)
		raw := p.batchRaw[i*NumBehaviors : (i+1)*NumBehaviors]
		out[i] = Action{B: b, A: raw[b], Raw: raw}
	}
}

// SetBatchEnvs implements BatchConfigurable. A width above one runs
// uniform-replay sampling through the double-buffered prefetch pipeline.
// It is bit-neutral — it reorders independent work, never arithmetic or
// rng draws — so checkpoints match a width-1 run exactly.
func (p *PDQN) SetBatchEnvs(n int) {
	if n < 1 {
		n = 1
	}
	p.batchEnvs = n
	if n == 1 && p.pf != nil {
		p.pf.Close()
		p.pf = nil
	}
}

// BatchEnvs reports the configured batch width (at least 1).
func (p *PDQN) BatchEnvs() int {
	if p.batchEnvs < 1 {
		return 1
	}
	return p.batchEnvs
}

// Close implements BatchConfigurable: it shuts down the replay prefetch
// worker (ordered: in-flight gather drained, goroutine joined). Idempotent;
// training after Close restarts the pipeline lazily.
func (p *PDQN) Close() {
	if p.pf != nil {
		p.pf.Close()
		p.pf = nil
	}
}

// targetValues fills p.ys with the TD targets y = r + γ·max_b Q_T of
// Equation (22) for the whole minibatch, one forward through the target
// networks per chunk of trainChunk transitions. A terminal row forwards
// its own State in place of Next and its output is ignored, so each
// forward has the chunk's row count and the workspaces keep one shape.
func (p *PDQN) targetValues(batch []Transition) []float64 {
	p.ys = growFloats(p.ys, len(batch))
	ys := p.ys
	for lo := 0; lo < len(batch); lo += trainChunk {
		chunk := chunkOf(batch, lo)
		p.states = p.states[:0]
		for _, tr := range chunk {
			s := tr.Next
			if tr.Done {
				s = tr.State
			}
			p.states = append(p.states, s)
		}
		qN := p.qT.Forward(p.states, p.xT.Forward(p.states))
		for r, tr := range chunk {
			y := tr.Reward
			if !tr.Done {
				y += p.cfg.Gamma * qN.At(r, qN.ArgmaxRow(r))
			}
			ys[lo+r] = y
		}
	}
	return ys
}
