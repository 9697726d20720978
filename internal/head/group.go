package head

import (
	"head/internal/obs/span"
	"head/internal/sensor"
	"head/internal/world"
)

// batchDecider is the batched decision interface (implemented by
// *AgentController): one action selection for several environments.
type batchDecider interface {
	DecideBatch(envs []*Env, ms []world.Maneuver)
}

// Group rolls several environments through one episode each in lock-step,
// so the per-step network work crosses the networks once per round for the
// whole group instead of once per environment. A round has three stages:
// one decision for every live member (one DecideBatch when the controller
// has it, per-env Decide otherwise — the rule-based baselines), each live
// member's physics, reward and sensing, and one Perception run over the
// live members, whose rows the members read as their own perception.
//
// Bit-identity: the batched forwards are bit-identical per row to the
// batch of one, and each environment's transition sequence is untouched,
// so every episode a Group rolls is bit-for-bit the episode the
// environment would roll alone.
//
// A Group is owned by one goroutine; run independent Groups on independent
// goroutines for coarse parallelism.
type Group struct {
	// Envs are the members. Run resets each and rolls it to termination;
	// members finishing early drop out of the lock-step. They share one
	// configuration and identical predictor weights: the first member's
	// predictor perceives for all.
	Envs []*Env
	// Ctrl decides for every member, so its policy must be
	// episode-independent (true for the greedy AgentController).
	Ctrl Controller
	// First is Envs[0]'s episode index: Run opens the episode span under
	// it, and member i's decision records carry episode First+i.
	First int

	perc    *Perception
	live    []int
	lenvs   []*Env
	ms      []world.Maneuver
	windows [][]sensor.Frame
}

// Run resets every member and rolls all of them to termination in
// lock-step, returning the number of rounds. before (may be nil) sees
// member i's maneuver ahead of its step, while its perception is still the
// one the decision read; after (may be nil) sees the step's outcome with
// the member's post-step state current. Spans land on lane: one episode
// span, one step span per round with bpdqn_forward and the perception
// phases, and the members' own phases.
func (g *Group) Run(lane *span.Lane, before func(i int, m world.Maneuver), after func(i int, out StepOutcome)) int {
	if len(g.Envs) == 0 {
		return 0
	}
	er := lane.StartEpisode(g.First)
	defer er.End()
	for i, e := range g.Envs {
		e.SetTrace(lane)
		e.episode = g.First + i
	}
	defer func() {
		for _, e := range g.Envs {
			e.SetTrace(nil)
			e.episode = -1
		}
	}()
	if g.perc == nil {
		first := g.Envs[0]
		g.perc = NewPerception(first.Cfg.Phantom(), first.Spec(), first.Cfg.UsePhantom, first.perc.predictor)
	}
	g.Ctrl.Reset()
	g.live = g.live[:0]
	for i, e := range g.Envs {
		e.reset()
		g.live = append(g.live, i)
	}
	g.perceive(lane)
	rounds := 0
	for len(g.live) > 0 {
		sr := lane.StartStep(rounds)
		g.decide(lane)
		for k, i := range g.live {
			if before != nil {
				before(i, g.ms[k])
			}
			out := g.Envs[i].step(g.ms[k])
			if after != nil {
				after(i, out)
			}
		}
		n := g.live[:0]
		for _, i := range g.live {
			if !g.Envs[i].Done() {
				n = append(n, i)
			}
		}
		g.live = n
		g.perceive(lane)
		sr.End()
		rounds++
	}
	return rounds
}

// decide fills g.ms with the live members' maneuvers.
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
	if d, ok := g.Ctrl.(batchDecider); ok {
		d.DecideBatch(g.lenvs, g.ms)
	} else {
		for k, e := range g.lenvs {
			g.ms[k] = g.Ctrl.Decide(e)
		}
	}
	fw.End()
}

// perceive runs one perception over the live members and hands each its
// row.
func (g *Group) perceive(lane *span.Lane) {
	if len(g.live) == 0 {
		return
	}
	g.windows = g.windows[:0]
	for _, i := range g.live {
		g.windows = append(g.windows, g.Envs[i].sens.History())
	}
	g.perc.Run(lane, g.windows)
	for k, i := range g.live {
		g.perc.handRow(k, g.Envs[i].perc)
	}
}
