package predict

import (
	"math/rand"

	"head/internal/ngsim"
	"head/internal/nn"
	"head/internal/phantom"
	"head/internal/tensor"
)

// LSTGAT is the paper's Local Spatial-Temporal Graph ATtention model:
// a sharing graph attention mechanism aggregates each spatial graph of the
// spatial-temporal graph (Equations (10)–(11)), an LSTM captures the
// temporal dependencies of the updated target states (Equation (12)), and
// a linear read-out emits the one-step future state of all six targets in
// parallel (Equation (13)).
type LSTGAT struct {
	cfg    LSTGATConfig
	gat    *nn.GAT
	gats   []*nn.GAT // per-step weight-sharing views
	lstm   *nn.LSTM
	out    *nn.Linear
	params []*nn.Param
	opt    *nn.Adam
	scale  scaler
	z      int
	lastT  int // index of the most recent history step run through forward

	// steady-state scratch: per-step node/input matrices live in ws (valid
	// until the next forward), seq and dHidden reuse their backing arrays,
	// and one is the one-graph batch Predict and GradBatch pass to forward.
	ws      tensor.Workspace
	seq     []*tensor.Matrix
	dHidden []*tensor.Matrix
	one     [1]*phantom.Graph

	// offset target/neighbor index views over the concatenated node
	// matrix, reusing their backing arrays across calls.
	batchTargets []int
	batchNbrs    [][]int
}

// LSTGATConfig sizes the network. The paper uses Dφ1 = Dφ3 = Dl = 64.
type LSTGATConfig struct {
	AttnDim   int     // Dφ1
	GATOut    int     // Dφ3
	HiddenDim int     // Dl
	Z         int     // historical steps
	LR        float64 // Adam learning rate
	// UniformAttention replaces the learned importance scores with mean
	// aggregation — the ablation of the graph attention mechanism.
	UniformAttention bool
}

// DefaultLSTGATConfig returns the paper's dimensions. The learning rate is
// higher than the published 0.001 because the synthetic REAL substitute
// has orders of magnitude fewer optimizer steps per epoch than NGSIM; the
// published rate never leaves the initialization basin at this scale.
func DefaultLSTGATConfig() LSTGATConfig {
	return LSTGATConfig{AttnDim: 64, GATOut: 64, HiddenDim: 64, Z: 5, LR: 0.01}
}

// slotCode returns a static positional code per graph node: the key-area
// slot a surrounder occupies (normalized), or 0 for target nodes. The
// paper's neighborhoods have fixed semantics per slot (slot 2 is always
// the leader, slot 5 always the follower, …) but Equations (7)–(8) carry
// no positional information, so content-based attention cannot tell the
// leader from the follower; the code restores that signal.
var slotCode = func() [phantom.NumNodes]float64 {
	var codes [phantom.NumNodes]float64
	for i := phantom.Slot(0); i < phantom.NumSlots; i++ {
		for j := phantom.Slot(0); j < phantom.NumSlots; j++ {
			codes[phantom.SurrounderNode(i, j)] = float64(j+1) / float64(phantom.NumSlots+1)
		}
	}
	return codes
}()

// gatInDim is the GAT input width: state features plus the slot code.
const gatInDim = phantom.FeatureDim + 1

// NewLSTGAT builds an LST-GAT model.
func NewLSTGAT(cfg LSTGATConfig, rng *rand.Rand) *LSTGAT {
	gat := nn.NewGAT("lstgat.gat", gatInDim, cfg.AttnDim, cfg.GATOut, rng)
	gat.Residual = true
	gat.Uniform = cfg.UniformAttention
	gats := make([]*nn.GAT, cfg.Z)
	for i := range gats {
		gats[i] = gat.Share()
	}
	lstm := nn.NewLSTM("lstgat.lstm", phantom.FeatureDim+cfg.GATOut, cfg.HiddenDim, rng)
	out := nn.NewLinear("lstgat.out", cfg.HiddenDim, OutputDim, rng)
	params := make([]*nn.Param, 0, len(gat.Params())+len(lstm.Params())+len(out.Params()))
	params = append(params, gat.Params()...)
	params = append(params, lstm.Params()...)
	params = append(params, out.Params()...)
	return &LSTGAT{
		cfg:    cfg,
		gat:    gat,
		gats:   gats,
		lstm:   lstm,
		out:    out,
		params: params,
		opt:    nn.NewAdam(cfg.LR),
		scale:  defaultScaler(),
		z:      cfg.Z,
	}
}

// Name implements Model.
func (m *LSTGAT) Name() string { return "LST-GAT" }

// Clone returns an independent copy of the model: identical architecture
// and parameter values, fresh optimizer state and forward caches. Layers
// cache their most recent forward inputs, so one instance must never be
// shared between concurrent Predict or TrainBatch calls — parallel
// evaluation episodes and data-parallel training workers each own a clone.
func (m *LSTGAT) Clone() *LSTGAT {
	c := NewLSTGAT(m.cfg, rand.New(rand.NewSource(0)))
	nn.CopyParams(c, m)
	return c
}

// Replica implements DataParallel.
func (m *LSTGAT) Replica() DataParallel { return m.Clone() }

// Params implements nn.Module. Prebuilt with len == cap at construction
// (GAT, LSTM, read-out: the serialization order) so the per-step
// parameter walks allocate nothing.
func (m *LSTGAT) Params() []*nn.Param { return m.params }

// forward runs the full network over one or more graphs, returning the
// scaled output: 6×3 per graph, stacked in graph order. The LSTM input at
// each step concatenates every target's own (scaled) state vector with its
// graph-attention aggregation: the pure convex combination of Equation
// (11) cannot isolate the target's own state — its softmax weights sum to
// one, so neighbor content is always injected at full magnitude — and the
// concatenation lets the temporal model weigh raw state against
// interaction context (see BenchmarkAblationAggregator).
//
// Per history step the graphs' node matrices stack into one gather matrix
// (targets and neighbor lists shifted by each graph's node base), one
// shared-weight GAT pass aggregates every graph's neighborhoods, and the
// LSTM and read-out run over the concatenated target rows. All cross-row
// computation is row-independent, so each graph's rows are bit-identical
// to a forward over that graph alone; Predict is the batch of one.
func (m *LSTGAT) forward(gs []*phantom.Graph) *tensor.Matrix {
	z := len(gs[0].Steps)
	nodesPer := len(gs[0].Steps[0])
	nTargets := 0
	for _, g := range gs {
		if len(g.Steps) != z {
			panic("predict: forward graphs disagree on history length")
		}
		for _, step := range g.Steps {
			if len(step) != nodesPer {
				panic("predict: forward graphs disagree on node count")
			}
		}
		nTargets += len(g.Targets)
	}
	// Offset target/neighbor indices into the concatenated node matrix.
	if cap(m.batchTargets) < nTargets {
		m.batchTargets = make([]int, nTargets)
	}
	m.batchTargets = m.batchTargets[:nTargets]
	for len(m.batchNbrs) < nTargets {
		m.batchNbrs = append(m.batchNbrs, nil)
	}
	idx := 0
	for e, g := range gs {
		off := e * nodesPer
		for i, t := range g.Targets {
			m.batchTargets[idx] = t + off
			nbrs := g.Neighbors[i]
			dst := m.batchNbrs[idx]
			if cap(dst) < len(nbrs) {
				dst = make([]int, len(nbrs))
			}
			dst = dst[:len(nbrs)]
			for k, j := range nbrs {
				dst[k] = j + off
			}
			m.batchNbrs[idx] = dst
			idx++
		}
	}
	targets := m.batchTargets
	neighbors := m.batchNbrs[:nTargets]

	m.ws.Reset()
	if cap(m.seq) < z {
		m.seq = make([]*tensor.Matrix, z)
	}
	m.seq = m.seq[:z]
	for t := 0; t < z; t++ {
		nodes := m.ws.Get(len(gs)*nodesPer, gatInDim)
		for e, g := range gs {
			base := e * nodesPer
			m.scale.nodesInto(nodes, base, g.Steps[t])
			for n := 0; n < nodesPer; n++ {
				nodes.Row(base + n)[phantom.FeatureDim] = slotCode[n]
			}
		}
		if t >= len(m.gats) {
			// Histories longer than configured get extra weight-sharing
			// views so every step keeps its own backward cache.
			m.gats = append(m.gats, m.gat.Share())
		}
		ctx := m.gats[t].Forward(nodes, targets, neighbors)
		// The LSTM input concatenates each target's own scaled features
		// with its attention aggregation, written straight into one
		// workspace row per target.
		cat := m.ws.Get(nTargets, phantom.FeatureDim+ctx.Cols)
		idx = 0
		for e, g := range gs {
			base := e * nodesPer
			for _, node := range g.Targets {
				row := cat.Row(idx)
				copy(row[:phantom.FeatureDim], nodes.Row(base + node)[:phantom.FeatureDim])
				copy(row[phantom.FeatureDim:], ctx.Row(idx))
				idx++
			}
		}
		m.seq[t] = cat
	}
	hs := m.lstm.Forward(m.seq)
	m.lastT = z - 1
	return m.out.Forward(hs[len(hs)-1])
}

// PredictBatch predicts every graph in one batched pass, writing gs[i]'s
// prediction into out[i]. Each prediction is bit-identical to
// Predict(gs[i]) — the batched execution engine's contract, gated by
// TestPredictBatchBitIdentity and the experiments golden test.
func (m *LSTGAT) PredictBatch(gs []*phantom.Graph, out []Prediction) {
	if len(gs) == 0 {
		return
	}
	if len(out) < len(gs) {
		panic("predict: PredictBatch out shorter than gs")
	}
	y := m.forward(gs)
	row := 0
	for e, g := range gs {
		for i := range g.Targets {
			out[e][i] = m.scale.unscaleRow(y.Row(row))
			row++
		}
	}
}

// LastAttention returns the graph-attention weights of the most recent
// prediction's final (decision-relevant) history step: one row per target
// slot, one weight per attended neighbor. The rows alias the forward
// cache — copy before retaining. Nil before the first Predict.
func (m *LSTGAT) LastAttention() [][]float64 {
	if m.lastT < 0 || m.lastT >= len(m.gats) {
		return nil
	}
	return m.gats[m.lastT].Alphas()
}

// Predict implements Model. All six targets are predicted in one parallel
// pass.
func (m *LSTGAT) Predict(g *phantom.Graph) Prediction {
	m.one[0] = g
	y := m.forward(m.one[:])
	var p Prediction
	for i := 0; i < phantom.NumSlots; i++ {
		p[i] = m.scale.unscaleRow(y.Row(i))
	}
	return p
}

// TrainBatch implements Model: masked MSE (Equation (14)) with phantom
// targets excluded, one Adam step per batch.
func (m *LSTGAT) TrainBatch(batch []*ngsim.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	total := m.GradBatch(batch)
	m.ApplyGrads()
	return total / float64(len(batch))
}

// GradBatch implements DataParallel: it zeroes the gradients and
// accumulates fresh ones over the batch without applying them, returning
// the summed (not averaged) sample loss so chunk losses reduce exactly.
func (m *LSTGAT) GradBatch(batch []*ngsim.Sample) float64 {
	nn.ZeroGrads(m)
	total := 0.0
	for _, s := range batch {
		m.one[0] = s.Graph
		y := m.forward(m.one[:])
		target := m.ws.Get(phantom.NumSlots, OutputDim)
		for i := 0; i < phantom.NumSlots; i++ {
			if s.Mask[i] {
				// Masked loss: the paper sets the truth to the prediction.
				copy(target.Row(i), y.Row(i))
				continue
			}
			st := m.scale.scaleTruth(s.Truth[i])
			copy(target.Row(i), st[:])
		}
		grad := m.ws.Get(phantom.NumSlots, OutputDim)
		total += nn.MSE(y, target, grad)
		dh := m.out.Backward(grad)
		if cap(m.dHidden) < len(s.Graph.Steps) {
			m.dHidden = make([]*tensor.Matrix, len(s.Graph.Steps))
		}
		m.dHidden = m.dHidden[:len(s.Graph.Steps)]
		for i := range m.dHidden {
			m.dHidden[i] = nil
		}
		m.dHidden[len(m.dHidden)-1] = dh
		dxs := m.lstm.Backward(m.dHidden)
		for t, dx := range dxs {
			if t < len(m.gats) {
				dCtx := m.ws.Get(dx.Rows, dx.Cols-phantom.FeatureDim)
				tensor.SliceColsInto(dCtx, dx, phantom.FeatureDim)
				m.gats[t].Backward(dCtx)
			}
		}
	}
	return total
}

// ApplyGrads implements DataParallel: gradient clipping plus one Adam
// step over whatever gradients are currently accumulated.
func (m *LSTGAT) ApplyGrads() {
	nn.ClipGradNorm(m, 5)
	m.opt.Step(m)
}
