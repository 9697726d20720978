package head

import (
	"slices"

	"head/internal/obs/span"
	"head/internal/phantom"
	"head/internal/predict"
	"head/internal/rl"
	"head/internal/sensor"
	"head/internal/world"
)

// Phantom returns the phantom-vehicle construction geometry of the
// environment: lanes, lane width, sensor radius and Δt. Env and the
// decision service (serve.ConfigFor) both build graphs with it, so a
// served decision sees the geometry the models were trained in.
func (c EnvConfig) Phantom() phantom.Config {
	return phantom.Config{
		Lanes:     c.Traffic.World.Lanes,
		LaneWidth: c.Traffic.World.LaneWidth,
		R:         c.Sensor.R,
		Dt:        c.Traffic.World.Dt,
	}
}

// Perception is the enhanced perception module of Figure 1 over B sensor
// windows: phantom vehicle construction per window, one batched LST-GAT
// forward over the B graphs, and the augmented state s₊ of Equations
// (15)–(16) per row. It is the one implementation behind Env (B = 1), the
// lock-step Group (B = its live members) and the decision service
// (B = the micro-batch). Row i is bit-identical to a run over window i
// alone: PredictBatch keeps per-row FP order, and phantom construction and
// state assembly are per row to begin with.
//
// A Perception owns its model's forward caches and its per-row scratch, so
// it is used by one goroutine at a time. Every row result is valid until
// the next Run.
type Perception struct {
	spec       rl.StateSpec
	usePhantom bool
	predictor  *predict.LSTGAT // nil: zero prediction (w/o-LST-GAT)
	builder    *phantom.Builder

	graphs []*phantom.Graph // BuildInto reuses their storage
	preds  []predict.Prediction
	states [][]float64
	attn   [][]float64 // the last forward's attention rows, NumSlots per row
}

// NewPerception returns a perception over the given phantom geometry and
// state spec. usePhantom false is the HEAD-w/o-PVC ablation (phantom
// nodes zero-filled); a nil predictor gives the HEAD-w/o-LST-GAT zero
// prediction.
func NewPerception(geom phantom.Config, spec rl.StateSpec, usePhantom bool, predictor *predict.LSTGAT) *Perception {
	return &Perception{
		spec:       spec,
		usePhantom: usePhantom,
		predictor:  predictor,
		builder:    phantom.NewBuilder(geom),
	}
}

// Run perceives every window (oldest frame first) and returns the
// augmented states, row i for windows[i]. The phases land on lane as
// phantom_build, lstgat_infer and assemble_state spans (nil records
// nothing). An empty window yields a nil graph, and then no row gets a
// prediction.
func (p *Perception) Run(lane *span.Lane, windows [][]sensor.Frame) [][]float64 {
	n := len(windows)
	p.grow(n)
	pb := lane.Start("phantom_build")
	for i, w := range windows {
		g := p.builder.BuildInto(p.graphs[i], w)
		if g != nil && !p.usePhantom {
			zeroPhantoms(g)
		}
		p.graphs[i] = g
	}
	pb.End()
	p.attn = nil
	if p.predictor != nil && n > 0 && !slices.Contains(p.graphs[:n], nil) {
		li := lane.Start("lstgat_infer")
		p.predictor.PredictBatch(p.graphs[:n], p.preds[:n])
		p.attn = p.predictor.LastAttention()
		li.End()
	} else {
		clear(p.preds[:n])
	}
	as := lane.Start("assemble_state")
	for i, g := range p.graphs[:n] {
		var av world.State
		if g != nil {
			av = g.AV
		}
		p.states[i] = AssembleState(p.spec, g, p.preds[i], av, p.states[i])
	}
	as.End()
	return p.states[:n]
}

// grow makes room for n rows.
func (p *Perception) grow(n int) {
	for len(p.graphs) < n {
		p.graphs = append(p.graphs, nil)
		p.preds = append(p.preds, predict.Prediction{})
		p.states = append(p.states, nil)
	}
}

// Graph returns row i's spatial-temporal graph.
func (p *Perception) Graph(i int) *phantom.Graph { return p.graphs[i] }

// Prediction returns row i's one-step future-state prediction.
func (p *Perception) Prediction(i int) predict.Prediction { return p.preds[i] }

// State returns row i's augmented state.
func (p *Perception) State(i int) []float64 { return p.states[i] }

// Attention returns row i's LST-GAT attention rows, one per target slot
// (rows [i·NumSlots, (i+1)·NumSlots) of the batched forward's cache), or
// nil when no forward ran. The rows alias forward caches the next Run
// overwrites.
func (p *Perception) Attention(i int) [][]float64 {
	lo, hi := i*phantom.NumSlots, (i+1)*phantom.NumSlots
	if hi > len(p.attn) {
		return nil
	}
	return p.attn[lo:hi]
}

// handRow gives row i of the last Run to dst's row 0: the two trade their
// graph and state storage, so dst owns what was built for it and p builds
// into dst's previous buffers next time. The attention rows stay aliased.
func (p *Perception) handRow(i int, dst *Perception) {
	dst.grow(1)
	p.graphs[i], dst.graphs[0] = dst.graphs[0], p.graphs[i]
	p.states[i], dst.states[0] = dst.states[0], p.states[i]
	dst.preds[0] = p.preds[i]
	dst.attn = p.Attention(i)
}

// zeroPhantoms implements the w/o-PVC ablation: every constructed phantom
// node's features are replaced by zero states.
func zeroPhantoms(g *phantom.Graph) {
	for t := range g.Steps {
		for n := range g.Steps[t] {
			if g.Steps[t][n][3] == 1 {
				g.Steps[t][n] = phantom.Feature{}
			}
		}
	}
}
