// Package batch is the vectorized environment runner of the batched
// execution engine: it steps N independent head.Env instances in lock-step
// so the per-step neural network work — LST-GAT perception and BP-DQN
// action selection — crosses the network once per step for the whole group
// instead of once per environment. Per step it gathers the live
// environments' spatial-temporal graphs and augmented states into
// batch-major inputs (batch_gather), runs one PredictBatch and one
// SelectActionBatch (batch_infer), and scatters the per-env rows back
// (batch_scatter); the environments themselves still step serially, so all
// physics, reward, and sensing stay exactly the serial code.
//
// Bit-identity: the batched forwards are bit-identical to their serial
// counterparts (see the bit-identity invariant of the dot kernels in
// internal/tensor/dot.go: no kernel splits the k axis), the
// gather/scatter moves bytes without arithmetic, and each environment's
// transition sequence is untouched — so every episode a Group rolls is
// bit-for-bit the episode the serial loop would have rolled, and metrics
// reduced in episode order are byte-identical (the experiments golden test
// gates this end to end).
package batch

import (
	"head/internal/head"
	"head/internal/obs/span"
	"head/internal/phantom"
	"head/internal/predict"
	"head/internal/world"
)

// Decider is the batched decision interface (implemented by
// *head.AgentController): one action selection for several environments.
type Decider interface {
	head.Controller
	DecideBatch(envs []*head.Env, ms []world.Maneuver)
}

// batchPredictor is the batched perception interface (implemented by
// *predict.LSTGAT).
type batchPredictor interface {
	PredictBatch(gs []*phantom.Graph, out []predict.Prediction)
}

// Group runs a set of environments through one episode each in lock-step.
// It is owned by a single goroutine; run independent Groups on independent
// goroutines for coarse parallelism.
type Group struct {
	// Envs are the member environments. Each is Reset by Run and rolled to
	// termination; environments finishing early simply drop out of the
	// lock-step (divergent termination).
	Envs []*head.Env
	// Ctrl decides for every member. When it implements Decider the group
	// selects actions in one batched call; otherwise it falls back to
	// per-env Decide within the lock-step. Because one controller serves
	// every member, its policy must be episode-independent (true for the
	// greedy AgentController).
	Ctrl head.Controller

	// scratch, reused across steps
	live   []int
	lenvs  []*head.Env
	ms     []world.Maneuver
	gidx   []int
	graphs []*phantom.Graph
	preds  []predict.Prediction
}

// New returns a Group over the given controller and environments.
func New(ctrl head.Controller, envs []*head.Env) *Group {
	return &Group{Envs: envs, Ctrl: ctrl}
}

// predictor returns the batched predictor shared by the group, or nil when
// batched perception is unavailable (no predictor, prediction disabled, or
// the model has no PredictBatch). Environments hold per-episode predictor
// clones with identical weights, so the first member's model serves all.
func (g *Group) predictor() batchPredictor {
	for _, e := range g.Envs {
		if e.Predictor == nil || !e.Cfg.UsePrediction {
			return nil
		}
	}
	if len(g.Envs) == 0 {
		return nil
	}
	bp, ok := g.Envs[0].Predictor.(batchPredictor)
	if !ok {
		return nil
	}
	return bp
}

// Run resets every environment and rolls all of them to termination in
// lock-step. onStep is invoked for environment i immediately after its
// StepManeuver, with the environment's post-step state current — the hook
// metric collectors accumulate from (may be nil). Spans land on lane: one
// step span per lock-step iteration with batch_gather / batch_infer /
// batch_scatter phases around the grouped network work, plus the usual
// per-env phases from the environments themselves. Run returns the number
// of lock-step iterations.
func (g *Group) Run(lane *span.Lane, onStep func(env int, out head.StepOutcome)) int {
	bp := g.predictor()
	for _, e := range g.Envs {
		e.SetTrace(lane)
		e.SetDeferPrediction(bp != nil)
	}
	defer func() {
		for _, e := range g.Envs {
			e.SetTrace(nil)
			e.SetDeferPrediction(false)
		}
	}()
	g.Ctrl.Reset()
	for _, e := range g.Envs {
		e.Reset()
	}
	// Reset leaves every member owing a prediction in deferred mode; the
	// first batched forward delivers the initial states.
	g.applyPending(lane, bp)

	g.live = g.live[:0]
	for i := range g.Envs {
		g.live = append(g.live, i)
	}
	steps := 0
	for len(g.live) > 0 {
		sr := lane.StartStep(steps)
		g.decide(lane)
		for k, i := range g.live {
			out := g.Envs[i].StepManeuver(g.ms[k])
			if onStep != nil {
				onStep(i, out)
			}
		}
		// The members' perception refresh deferred their LST-GAT forwards;
		// run them as one batch before the next decision reads State.
		g.applyPending(lane, bp)
		sr.End()
		steps++
		n := g.live[:0]
		for _, i := range g.live {
			if !g.Envs[i].Done() {
				n = append(n, i)
			}
		}
		g.live = n
	}
	return steps
}

// decide fills g.ms with the live members' maneuvers — one batched
// selection when the controller supports it.
func (g *Group) decide(lane *span.Lane) {
	g.lenvs = g.lenvs[:0]
	for _, i := range g.live {
		g.lenvs = append(g.lenvs, g.Envs[i])
	}
	if cap(g.ms) < len(g.lenvs) {
		g.ms = make([]world.Maneuver, len(g.lenvs))
	}
	g.ms = g.ms[:len(g.lenvs)]
	fw := lane.Start("bpdqn_forward")
	if d, ok := g.Ctrl.(Decider); ok {
		d.DecideBatch(g.lenvs, g.ms)
	} else {
		for k, e := range g.lenvs {
			g.ms[k] = g.Ctrl.Decide(e)
		}
	}
	fw.End()
}

// applyPending runs one batched LST-GAT forward over every member owing a
// prediction and scatters the rows back.
func (g *Group) applyPending(lane *span.Lane, bp batchPredictor) {
	if bp == nil {
		return
	}
	bg := lane.Start("batch_gather")
	g.gidx = g.gidx[:0]
	g.graphs = g.graphs[:0]
	for i, e := range g.Envs {
		if e.PredictionPending() {
			g.gidx = append(g.gidx, i)
			g.graphs = append(g.graphs, e.Graph())
		}
	}
	bg.End()
	if len(g.gidx) == 0 {
		return
	}
	if cap(g.preds) < len(g.gidx) {
		g.preds = make([]predict.Prediction, len(g.gidx))
	}
	g.preds = g.preds[:len(g.gidx)]
	bi := lane.Start("batch_infer")
	bp.PredictBatch(g.graphs, g.preds)
	bi.End()
	bs := lane.Start("batch_scatter")
	for k, i := range g.gidx {
		g.Envs[i].ApplyPrediction(g.preds[k])
	}
	bs.End()
}
