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
// per-batch scratch, and implements Decider with exactly one batched
// LST-GAT forward and one batched BP-DQN forward pair per call.
type Replica struct {
	cfg       ReplicaConfig
	predictor *predict.LSTGAT
	agent     rl.BatchAgent
	builder   *phantom.Builder

	// scratch reused across batches: per-request graphs (BuildInto reuses
	// their storage), one frames window shared by the sequential builds,
	// and the gathered matrices of the batched forwards.
	graphs    []*phantom.Graph
	frames    []sensor.Frame
	frameMaps []map[int]world.State
	preds     []predict.Prediction
	states    [][]float64
	stateBufs [][]float64
	acts      []rl.Action
}

// ConfigFor derives the replica's perception geometry from an environment
// configuration — the same derivation head.NewEnv uses for its own sensor
// and builder, so a replica serves exactly the geometry the models were
// trained in.
func ConfigFor(cfg head.EnvConfig) ReplicaConfig {
	return ReplicaConfig{
		Z:    cfg.Sensor.Z,
		Spec: rl.DefaultStateSpec(),
		Phantom: phantom.Config{
			Lanes:     cfg.Traffic.World.Lanes,
			LaneWidth: cfg.Traffic.World.LaneWidth,
			R:         cfg.Sensor.R,
			Dt:        cfg.Traffic.World.Dt,
		},
	}
}

// NewReplica builds a replica over private model instances. The caller
// hands over ownership: predictor and agent must not be used elsewhere
// afterwards (clone before constructing when sharing trained weights
// across a pool).
func NewReplica(cfg ReplicaConfig, predictor *predict.LSTGAT, agent rl.BatchAgent) *Replica {
	return &Replica{
		cfg:       cfg,
		predictor: predictor,
		agent:     agent,
		builder:   phantom.NewBuilder(cfg.Phantom),
	}
}

// framesFor rebuilds the replica's frames window from an observation. The
// window and its maps are replica-owned scratch, valid until the next
// call — safe because the graph builder copies everything it keeps.
func (r *Replica) framesFor(o *Observation) []sensor.Frame {
	for len(r.frameMaps) < len(o.Frames) {
		r.frameMaps = append(r.frameMaps, make(map[int]world.State))
	}
	r.frames = r.frames[:0]
	for i, f := range o.Frames {
		m := r.frameMaps[i]
		clear(m)
		for _, v := range f.Vehicles {
			m[v.ID] = v.State
		}
		r.frames = append(r.frames, sensor.Frame{AV: f.AV, Observed: m})
	}
	return r.frames
}

// DecideBatch implements Decider: phantom construction per observation,
// one batched LST-GAT forward over all graphs, augmented-state assembly,
// and one batched BP-DQN greedy selection. Row i is bit-identical to the
// serial pipeline on obs[i] alone — PredictBatch and SelectActionBatch
// guarantee per-row FP order, phantom construction and state assembly are
// per-request to begin with — which is the service's determinism contract.
func (r *Replica) DecideBatch(obs []*Observation, out []Decision) error {
	n := len(obs)
	if n == 0 {
		return nil
	}
	if len(out) < n {
		return fmt.Errorf("serve: DecideBatch out shorter than obs (%d < %d)", len(out), n)
	}
	for len(r.graphs) < n {
		r.graphs = append(r.graphs, nil)
	}
	for i, o := range obs {
		if err := o.Validate(r.cfg.Z); err != nil {
			return err
		}
		g := r.builder.BuildInto(r.graphs[i], r.framesFor(o))
		if g == nil {
			return fmt.Errorf("serve: observation %d produced no graph", i)
		}
		r.graphs[i] = g
	}
	if cap(r.preds) < n {
		r.preds = make([]predict.Prediction, n)
	}
	r.preds = r.preds[:n]
	r.predictor.PredictBatch(r.graphs[:n], r.preds)
	// The batched forward's attention cache concatenates every graph's
	// target rows in request order: request i owns rows
	// [i·NumSlots, (i+1)·NumSlots).
	attn := r.predictor.LastAttention()

	for len(r.stateBufs) < n {
		r.stateBufs = append(r.stateBufs, nil)
	}
	if cap(r.states) < n {
		r.states = make([][]float64, n)
	}
	r.states = r.states[:n]
	for i := 0; i < n; i++ {
		g := r.graphs[i]
		r.stateBufs[i] = head.AssembleState(r.cfg.Spec, g, r.preds[i], g.AV, r.stateBufs[i])
		r.states[i] = r.stateBufs[i]
	}
	if cap(r.acts) < n {
		r.acts = make([]rl.Action, n)
	}
	r.acts = r.acts[:n]
	r.agent.SelectActionBatch(r.states, r.acts)

	for i := 0; i < n; i++ {
		a := r.acts[i]
		d := Decision{
			Behavior:     a.B,
			BehaviorName: world.Behavior(a.B).String(),
			Accel:        a.A,
			Params:       append([]float64(nil), a.Raw...),
		}
		if lo, hi := i*phantom.NumSlots, (i+1)*phantom.NumSlots; hi <= len(attn) {
			if ent, ok := quality.MeanAttnEntropy(attn[lo:hi]); ok {
				d.AttnEntropy, d.attnValid = ent, true
			}
			if obs[i].ReturnAttention {
				rows := make([][]float64, phantom.NumSlots)
				for k, row := range attn[lo:hi] {
					rows[k] = append([]float64(nil), row...)
				}
				d.Attention = rows
			}
		}
		out[i] = d
	}
	return nil
}
