package serve

import (
	"fmt"

	"head/internal/head"
	"head/internal/obs/quality"
	"head/internal/phantom"
	"head/internal/predict"
	"head/internal/rl"
	"head/internal/sensor"
	"head/internal/world"
)

// Decider handles one batch of observations, writing out[i] for
// obs[i]. An error fails the whole batch (every waiter receives it).
// Implementations are owned by a single batcher worker goroutine and need
// not be safe for concurrent use.
type Decider interface {
	DecideBatch(obs []*Observation, out []Decision) error
}

// ReplicaConfig fixes the perception geometry one replica serves.
type ReplicaConfig struct {
	// Z is the history length every observation must carry.
	Z int
	// Spec shapes the augmented decision state.
	Spec rl.StateSpec
	// Phantom is the phantom-vehicle construction geometry (lanes, lane
	// width, sensor radius, Δt) — the env-side values the models were
	// trained against.
	Phantom phantom.Config
}

// Replica is one trained LST-GAT + BP-DQN model pair serving decisions.
// It owns private model instances (layers cache forward state, so an
// instance must never be shared between concurrent batches) plus all the
// per-batch scratch, and implements Decider with one head.Perception run —
// one batched LST-GAT forward — and one batched BP-DQN forward pair per
// call.
type Replica struct {
	cfg   ReplicaConfig
	perc  *head.Perception
	agent rl.BatchAgent

	// scratch reused across batches: one frames window per row, whose
	// observation maps are reused too, and the selected actions.
	windows   [][]sensor.Frame
	frameMaps [][]map[int]world.State
	acts      []rl.Action
}

// ConfigFor derives the replica's perception geometry from an environment
// configuration — the geometry head.NewEnv builds its graphs with, so a
// replica serves exactly the geometry the models were trained in.
func ConfigFor(cfg head.EnvConfig) ReplicaConfig {
	return ReplicaConfig{Z: cfg.Sensor.Z, Spec: rl.DefaultStateSpec(), Phantom: cfg.Phantom()}
}

// NewReplica builds a replica over private model instances. The caller
// hands over ownership: predictor and agent must not be used elsewhere
// afterwards (clone before constructing when sharing trained weights
// across a pool).
func NewReplica(cfg ReplicaConfig, predictor *predict.LSTGAT, agent rl.BatchAgent) *Replica {
	return &Replica{
		cfg:   cfg,
		perc:  head.NewPerception(cfg.Phantom, cfg.Spec, true, predictor),
		agent: agent,
	}
}

// window rebuilds row i's frames window from an observation. The window
// and its maps are replica-owned scratch, valid until the next call for
// row i — safe because the graph builder copies everything it keeps.
func (r *Replica) window(i int, o *Observation) {
	for len(r.windows) <= i {
		r.windows = append(r.windows, nil)
		r.frameMaps = append(r.frameMaps, nil)
	}
	maps := r.frameMaps[i]
	for len(maps) < len(o.Frames) {
		maps = append(maps, make(map[int]world.State))
	}
	r.frameMaps[i] = maps
	w := r.windows[i][:0]
	for k, f := range o.Frames {
		m := maps[k]
		clear(m)
		for _, v := range f.Vehicles {
			m[v.ID] = v.State
		}
		w = append(w, sensor.Frame{AV: f.AV, Observed: m})
	}
	r.windows[i] = w
}

// DecideBatch implements Decider: validation, wire frames to windows, one
// perception run and one batched BP-DQN greedy selection over the rows,
// and the decisions. Row i is bit-identical to the serial pipeline on
// obs[i] alone (head.Perception and SelectActionBatch keep per-row FP
// order), which is the service's determinism contract.
func (r *Replica) DecideBatch(obs []*Observation, out []Decision) error {
	n := len(obs)
	if n == 0 {
		return nil
	}
	if len(out) < n {
		return fmt.Errorf("serve: DecideBatch out shorter than obs (%d < %d)", len(out), n)
	}
	for i, o := range obs {
		if err := o.Validate(r.cfg.Z); err != nil {
			return err
		}
		r.window(i, o)
	}
	if cap(r.acts) < n {
		r.acts = make([]rl.Action, n)
	}
	r.acts = r.acts[:n]
	r.agent.SelectActionBatch(r.perc.Run(nil, r.windows[:n]), r.acts)

	for i, a := range r.acts {
		d := Decision{
			Behavior:     a.B,
			BehaviorName: world.Behavior(a.B).String(),
			Accel:        a.A,
			Params:       append([]float64(nil), a.Raw...),
		}
		if attn := r.perc.Attention(i); attn != nil {
			if ent, ok := quality.MeanAttnEntropy(attn); ok {
				d.AttnEntropy, d.attnValid = ent, true
			}
			if obs[i].ReturnAttention {
				rows := make([][]float64, len(attn))
				for k, row := range attn {
					rows[k] = append([]float64(nil), row...)
				}
				d.Attention = rows
			}
		}
		out[i] = d
	}
	return nil
}
