// Package serve is the online decision service of the HEAD framework: it
// turns the batched execution engine outward, serving per-vehicle
// "observe → predict → act" requests from many concurrent clients through
// a work-conserving micro-batcher (Batcher) feeding a pool of trained
// LST-GAT + BP-DQN replicas (Replica). Each batch crosses the networks
// once — one LSTGAT.PredictBatch and one BPDQN.SelectActionBatch
// for the whole group — while every per-request row keeps the serial FP
// evaluation order, so a served decision is bit-identical to the decision
// head.Env's in-process serial path takes for the same observation
// (gated by TestServedDecisionBitIdentity).
//
// The wire model is deliberately raw-perception-shaped: a request carries
// the sensor's rolling z-frame observation history (what the vehicle
// actually saw), and the service runs the full enhanced-perception
// pipeline — phantom vehicle construction, LST-GAT future-state
// prediction, augmented-state assembly — before the BP-DQN decision. The
// response returns the maneuver, the full parameterized action vector,
// and the LST-GAT attention rows behind the decision.
package serve

import (
	"fmt"
	"math"
	"sort"

	"head/internal/sensor"
	"head/internal/world"
)

// MaxVehiclesPerFrame bounds how many observed vehicles one frame may
// carry; requests beyond it are rejected at validation time so a single
// client cannot inflate the service's per-request work unboundedly. The
// sensor's detection radius keeps honest snapshots far below this.
const MaxVehiclesPerFrame = 64

// Vehicle is one observed conventional vehicle inside a frame.
type Vehicle struct {
	ID    int         `json:"id"`
	State world.State `json:"state"`
}

// Frame is the wire form of one sensor frame: the AV's own absolute state
// and the conventional vehicles it observed at that step.
type Frame struct {
	AV       world.State `json:"av"`
	Vehicles []Vehicle   `json:"vehicles,omitempty"`
}

// Observation is the wire form of one perception snapshot: the sensor's
// rolling observation history, oldest frame first. It is the request body
// of POST /v1/decide.
type Observation struct {
	Frames []Frame `json:"frames"`

	// ReturnAttention asks the replica to copy the LST-GAT attention rows
	// behind this request's decision into the response. Not wire data: the
	// HTTP layer sets it from the ?attention=1 query parameter, so the hot
	// fleet path skips both the copy and its serialization.
	ReturnAttention bool `json:"-"`
}

// Snapshot deep-copies a sensor history into its wire form. Vehicles are
// emitted in ascending ID order so the same history always serializes to
// the same bytes (observation maps iterate randomly).
func Snapshot(frames []sensor.Frame) Observation {
	o := Observation{Frames: make([]Frame, len(frames))}
	for i, f := range frames {
		wf := Frame{AV: f.AV}
		if len(f.Observed) > 0 {
			wf.Vehicles = make([]Vehicle, 0, len(f.Observed))
			for id, st := range f.Observed {
				wf.Vehicles = append(wf.Vehicles, Vehicle{ID: id, State: st})
			}
			sort.Slice(wf.Vehicles, func(a, b int) bool { return wf.Vehicles[a].ID < wf.Vehicles[b].ID })
		}
		o.Frames[i] = wf
	}
	return o
}

// Validate checks an observation against the service's perception
// geometry and rejects values the model must not compute on: exactly z
// frames (the LST-GAT history length every request in a batch must
// agree on), a bounded vehicle count per frame, finite AV and vehicle
// states (the binary wires can carry NaN and ±Inf), and no vehicle ID
// twice in one frame (a frame is a map from ID to state; a repeat would
// silently drop one of the two states).
func (o *Observation) Validate(z int) error {
	if len(o.Frames) != z {
		return fmt.Errorf("serve: observation has %d frames, service expects exactly %d", len(o.Frames), z)
	}
	for i, f := range o.Frames {
		if len(f.Vehicles) > MaxVehiclesPerFrame {
			return fmt.Errorf("serve: frame %d has %d vehicles (max %d)", i, len(f.Vehicles), MaxVehiclesPerFrame)
		}
		if !finite(f.AV) {
			return fmt.Errorf("serve: frame %d AV state is not finite (lon %v, v %v)", i, f.AV.Lon, f.AV.V)
		}
		for k, v := range f.Vehicles {
			if !finite(v.State) {
				return fmt.Errorf("serve: frame %d vehicle %d state is not finite (lon %v, v %v)", i, v.ID, v.State.Lon, v.State.V)
			}
			for _, prev := range f.Vehicles[:k] {
				if prev.ID == v.ID {
					return fmt.Errorf("serve: frame %d repeats vehicle %d", i, v.ID)
				}
			}
		}
	}
	return nil
}

// finite reports whether both float fields of s are finite.
func finite(s world.State) bool {
	return !math.IsNaN(s.Lon) && !math.IsInf(s.Lon, 0) && !math.IsNaN(s.V) && !math.IsInf(s.V, 0)
}

// Decision is the served maneuver: the discrete behavior, the executed
// acceleration, the full parameterized-action vector (one acceleration per
// behavior, world.Behavior order), the mean attention entropy of the
// decision step, and the full LST-GAT attention rows (one row per target
// slot, one weight per attended neighbor) when the request opted in.
type Decision struct {
	Behavior     int       `json:"behavior"`
	BehaviorName string    `json:"behavior_name"`
	Accel        float64   `json:"accel"`
	Params       []float64 `json:"params"`
	// AttnEntropy is the mean renormalized Shannon entropy (nats) of the
	// decision's LST-GAT attention rows — how spread the model's focus was.
	// Always computed (a scalar per row, no full-row copies), so quality
	// monitoring never needs ReturnAttention.
	AttnEntropy float64     `json:"attn_entropy"`
	Attention   [][]float64 `json:"attention,omitempty"`

	// attnValid distinguishes a true zero entropy (one-hot attention) from
	// rows with no positive mass. Server-internal, never on the wire.
	attnValid bool
}

// Maneuver converts the decision into the simulator's maneuver form.
func (d Decision) Maneuver() world.Maneuver {
	return world.Maneuver{B: world.Behavior(d.Behavior), A: d.Accel}
}
