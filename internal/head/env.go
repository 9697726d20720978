// Package head wires the HEAD framework together (Figure 1): the enhanced
// perception module (sensor → phantom vehicle construction → LST-GAT state
// prediction) feeds augmented states into the maneuver decision module
// (BP-DQN over the PAMDP with the hybrid reward function). Perception is
// one batched pipeline, Perception, run at B = 1 by Env, at B = the live
// members by the lock-step Group, and at B = the micro-batch by the
// decision service. The package exposes the environment as an rl.Env so
// any PAMDP solver can drive the autonomous vehicle, plus ablation
// switches for the HEAD-variants of the paper's Table II.
package head

import (
	"math"
	"math/rand"

	"head/internal/obs/span"
	"head/internal/phantom"
	"head/internal/predict"
	"head/internal/reward"
	"head/internal/rl"
	"head/internal/sensor"
	"head/internal/traffic"
	"head/internal/world"
)

// EnvConfig configures a HEAD environment.
type EnvConfig struct {
	Traffic traffic.Config
	Sensor  sensor.Config
	Reward  reward.Config
	// MaxSteps bounds an episode (a safety net on top of reaching the
	// destination or colliding).
	MaxSteps int
	// UsePhantom toggles the phantom vehicle construction strategy; when
	// false (HEAD-w/o-PVC) the states of unobservable vehicles are filled
	// with zeros instead of the presets of Equations (4)–(6).
	UsePhantom bool
	// UsePrediction toggles the LST-GAT future states; when false
	// (HEAD-w/o-LST-GAT) the augmented state carries zero future states
	// and decisions rely on current observations only.
	UsePrediction bool
}

// DefaultEnvConfig returns the paper's simulated environment settings.
func DefaultEnvConfig() EnvConfig {
	return EnvConfig{
		Traffic:       traffic.DefaultConfig(),
		Sensor:        sensor.DefaultConfig(),
		Reward:        reward.DefaultConfig(),
		MaxSteps:      1200,
		UsePhantom:    true,
		UsePrediction: true,
	}
}

// scale mirrors the predictor's feature normalization so decision networks
// see O(1) inputs.
const (
	latScale  = 16.0
	lonScale  = 100.0
	vScale    = 25.0
	laneScale = 6.0
	roadScale = 1000.0
)

// Env is one HEAD episode environment over the traffic simulator. It
// implements rl.Env. Physics, sensing and reward are its own; its
// perception is row 0 of a batch-of-one Perception, or the row a lock-step
// Group hands it.
type Env struct {
	Cfg EnvConfig

	sim       *traffic.Sim
	sens      *sensor.Sensor
	perc      *Perception
	window    [1][]sensor.Frame // the perception input, reused
	rng       *rand.Rand
	prevAccel float64
	steps     int
	done      bool
	collided  bool
	trace     *span.Lane
	// episode labels the decision records when the env shares a lane with
	// other Group members; -1 keeps the lane's episode.
	episode int
}

// NewEnv builds an environment. The predictor may be nil, in which case
// future states are zeros regardless of UsePrediction.
func NewEnv(cfg EnvConfig, predictor *predict.LSTGAT, rng *rand.Rand) *Env {
	if !cfg.UsePrediction {
		predictor = nil
	}
	return &Env{
		Cfg:     cfg,
		sens:    sensor.New(cfg.Sensor, cfg.Traffic.World.LaneWidth),
		perc:    NewPerception(cfg.Phantom(), rl.DefaultStateSpec(), cfg.UsePhantom, predictor),
		rng:     rng,
		episode: -1,
	}
}

// Spec implements rl.Env.
func (e *Env) Spec() rl.StateSpec { return rl.DefaultStateSpec() }

// AMax implements rl.Env.
func (e *Env) AMax() float64 { return e.Cfg.Traffic.World.AMax }

// Sim exposes the underlying traffic simulation (for rule-based baselines
// and metric collection).
func (e *Env) Sim() *traffic.Sim { return e.sim }

// Graph returns the latest spatial-temporal graph (after Reset or Step).
// The graph's storage is reused across steps — copy before retaining.
func (e *Env) Graph() *phantom.Graph { return e.perc.Graph(0) }

// Prediction returns the latest one-step future-state prediction.
func (e *Env) Prediction() predict.Prediction { return e.perc.Prediction(0) }

// Done reports whether the current episode has terminated.
func (e *Env) Done() bool { return e.done }

// Collided implements rl.CollisionReporter: whether the current episode
// has (so far) ended in a collision. It resets with the episode.
func (e *Env) Collided() bool { return e.collided }

// Steps returns the number of decision steps taken this episode.
func (e *Env) Steps() int { return e.steps }

// SetTrace implements span.Traceable: phase spans (env physics, reward
// computation, sensor scan, phantom construction, LST-GAT inference,
// state assembly) and per-step decision records flow onto the lane.
// Strictly out of band; nil detaches.
func (e *Env) SetTrace(l *span.Lane) { e.trace = l }

// DecisionAttention returns a deep copy of the LST-GAT attention rows
// behind the next decision, or nil when no prediction ran. The copy is
// what quality profiling and decision records consume — the underlying
// rows alias forward caches the next perception overwrites.
func (e *Env) DecisionAttention() [][]float64 {
	rows := e.perc.Attention(0)
	if rows == nil {
		return nil
	}
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// Reset implements rl.Env: it builds a fresh traffic scene, warms the
// sensor history with z internally controlled steps, and returns the
// initial augmented state.
func (e *Env) Reset() []float64 {
	e.reset()
	e.perceive()
	return e.State()
}

// reset is Reset without the perception, which a Group runs for all its
// members at once.
func (e *Env) reset() {
	sim, err := traffic.New(e.Cfg.Traffic, e.rng)
	if err != nil {
		// Config was validated by the caller; a failure here is a bug.
		panic("head: traffic.New: " + err.Error())
	}
	e.sim = sim
	e.sens.Reset()
	e.prevAccel = 0
	e.steps = 0
	e.done = false
	e.collided = false
	// Warm up the sensor history: the AV holds its lane with a mild IDM
	// controller while the first z frames accumulate.
	params := traffic.DriverParams{
		DesiredV: e.Cfg.Traffic.World.VMax, TimeHeadway: 1.5, MinGap: 2,
		MaxAccel: 1.5, ComfortDecel: 2,
	}
	for i := 0; i < e.Cfg.Sensor.Z; i++ {
		e.sens.Observe(e.sim.AV.State, e.sim.Vehicles)
		leader := e.sim.Leader(e.sim.AV.State.Lat, e.sim.AV.State.Lon, e.sim.AV)
		gap, dv := math.Inf(1), 0.0
		if leader != nil {
			gap = leader.State.Lon - e.sim.AV.State.Lon - e.Cfg.Traffic.World.VehicleLen
			dv = e.sim.AV.State.V - leader.State.V
		}
		a := e.Cfg.Traffic.World.ClampAccel(traffic.IDMAccel(params, e.sim.AV.State.V, gap, dv))
		if i == e.Cfg.Sensor.Z-1 {
			// The last warm-up frame is the decision state at t; do not
			// advance past it.
			break
		}
		e.sim.Step(world.Maneuver{B: world.LaneKeep, A: a})
		e.prevAccel = a
	}
}

// perceive runs the environment's own perception over its sensor history.
func (e *Env) perceive() {
	e.window[0] = e.sens.History()
	e.perc.Run(e.trace, e.window[:])
}

// State implements the augmented state s₊ = [hᵗ, f̂ᵗ⁺¹] of Equations
// (15)–(16), flattened row-major and normalized (assembly shared with the
// decision service via AssembleState). The returned slice is owned by the
// environment and reused: it is valid until the next State, Step, or Reset
// call (rl.Runner and the replay buffer copy accordingly).
func (e *Env) State() []float64 {
	if g := e.perc.Graph(0); e.done || g == nil {
		// A terminal step perceives nothing new: the last perceived graph
		// and prediction pair with the post-step AV row.
		e.perc.states[0] = AssembleState(e.Spec(), g, e.perc.preds[0], e.sim.AV.State, e.perc.states[0])
	}
	return e.perc.State(0)
}

// StepOutcome carries the rich per-step information metric collectors
// need beyond the reward scalar.
type StepOutcome struct {
	Reward    float64
	Terms     reward.Terms
	Collision bool
	Finished  bool
	Done      bool
	// TTC after the action (valid only when TTCValid).
	TTC      float64
	TTCValid bool
	// RearExists reports whether a conventional vehicle was directly
	// behind the AV before the step; RearDecel is its velocity drop
	// across the step (0 when absent or accelerating).
	RearExists bool
	RearDecel  float64
	// Jerk is |a_t − a_{t−1}|.
	Jerk float64
}

// Step implements rl.Env.
func (e *Env) Step(b int, a float64) ([]float64, float64, bool) {
	out := e.StepManeuver(world.Maneuver{B: world.Behavior(b), A: a})
	return e.State(), out.Reward, out.Done
}

// StepManeuver advances the environment by one maneuver and evaluates the
// hybrid reward. It is the richer form of Step used by rule-based
// controllers and the metric harness.
func (e *Env) StepManeuver(m world.Maneuver) StepOutcome {
	out := e.step(m)
	if !out.Done {
		e.perceive()
	}
	return out
}

// step is StepManeuver without the perception of the new state, which a
// Group runs for all its members at once.
func (e *Env) step(m world.Maneuver) StepOutcome {
	if e.done {
		return StepOutcome{Done: true}
	}
	w := e.Cfg.Traffic.World
	m.A = w.ClampAccel(m.A)

	// Pre-step ground truth about the rear conventional vehicle. Step
	// commits the new state into the same *Vehicle and never removes one,
	// so rearBefore reads the post-step speed below.
	rearBefore := e.sim.Follower(e.sim.AV.State.Lat, e.sim.AV.State.Lon, e.sim.AV)
	var rearVNow float64
	if rearBefore != nil {
		rearVNow = rearBefore.State.V
	}
	g := e.perc.Graph(0)
	frontPhantom := g != nil && g.Info[phantom.Front].Kind != phantom.NotMissing
	rearPhantom := g != nil && g.Info[phantom.Rear].Kind != phantom.NotMissing

	// The decision's attention evidence must be captured before the step:
	// the next perception overwrites the attention caches.
	var attn [][]float64
	if e.trace.Sampled() {
		attn = e.DecisionAttention()
	}

	ph := e.trace.Start("env_physics")
	res := e.sim.Step(m)
	ph.End()
	e.steps++

	var out StepOutcome
	out.Collision = res.AVCollision
	out.Finished = res.AVFinished
	if out.Collision {
		e.collided = true
	}
	out.Jerk = math.Abs(m.A - e.prevAccel)

	// Post-step reward inputs.
	in := reward.Inputs{
		Collision:      out.Collision,
		V:              e.sim.AV.State.V,
		Accel:          m.A,
		PrevAccel:      e.prevAccel,
		FrontIsPhantom: frontPhantom,
		RearIsPhantom:  rearPhantom,
	}
	if front := e.sim.Leader(e.sim.AV.State.Lat, e.sim.AV.State.Lon, e.sim.AV); front != nil {
		if ttc, ok := world.TTC(e.sim.AV.State, front.State, w.VehicleLen); ok {
			in.TTC, in.TTCValid = ttc, true
			out.TTC, out.TTCValid = ttc, true
		}
	}
	if rearBefore != nil {
		in.RearExists = true
		out.RearExists = true
		in.RearVNow = rearVNow
		in.RearVNext = rearBefore.State.V
		if d := rearVNow - rearBefore.State.V; d > 0 {
			out.RearDecel = d
		}
	}
	rc := e.trace.Start("reward_compute")
	out.Reward, out.Terms = e.Cfg.Reward.Evaluate(in)
	rc.End()
	e.prevAccel = m.A

	if out.Collision || out.Finished || e.steps >= e.Cfg.MaxSteps {
		e.done = true
	} else {
		sc := e.trace.Start("sensor_scan")
		e.sens.Observe(e.sim.AV.State, e.sim.Vehicles)
		sc.End()
	}
	out.Done = e.done
	e.trace.DecisionIn(e.episode, span.Decision{
		Behavior: m.B.String(), Accel: m.A,
		Reward: out.Reward,
		Safety: out.Terms.Safety, Eff: out.Terms.Efficiency,
		Comfort: out.Terms.Comfort, Impact: out.Terms.Impact,
		TTC:       out.TTC,
		Attention: attn,
	})
	return out
}
