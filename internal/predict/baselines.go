package predict

import (
	"math/rand"

	"head/internal/ngsim"
	"head/internal/nn"
	"head/internal/phantom"
	"head/internal/tensor"
)

// BaselineConfig sizes the baseline predictors.
type BaselineConfig struct {
	HiddenDim int
	LR        float64
	Z         int
}

// DefaultBaselineConfig matches the paper's 64-dim hidden layers. The
// learning rate matches DefaultLSTGATConfig (see the note there) so the
// Table III comparison is apples to apples.
func DefaultBaselineConfig() BaselineConfig {
	return BaselineConfig{HiddenDim: 64, LR: 0.01, Z: 5}
}

// LSTMMLP is the "vanilla LSTM with multilayer perceptron" baseline
// (Altché & de La Fortelle): each target vehicle's own feature sequence is
// encoded by an LSTM and decoded by an MLP, with no interaction between
// vehicles. Following the paper's efficiency analysis, inference computes
// each of the six targets separately.
type LSTMMLP struct {
	lstm  *nn.LSTM
	mlp   *nn.Sequential
	opt   *nn.Adam
	scale scaler
}

// NewLSTMMLP builds the LSTM-MLP baseline.
func NewLSTMMLP(cfg BaselineConfig, rng *rand.Rand) *LSTMMLP {
	m := &LSTMMLP{
		lstm:  nn.NewLSTM("lstmmlp.lstm", phantom.FeatureDim, cfg.HiddenDim, rng),
		mlp:   nn.NewMLP("lstmmlp.mlp", []int{cfg.HiddenDim, cfg.HiddenDim, OutputDim}, rng),
		opt:   nn.NewAdam(cfg.LR),
		scale: defaultScaler(),
	}
	return m
}

// Name implements Model.
func (m *LSTMMLP) Name() string { return "LSTM-MLP" }

// Params implements nn.Module.
func (m *LSTMMLP) Params() []*nn.Param {
	return append(m.lstm.Params(), m.mlp.Params()...)
}

// predictOne runs the network for a single target.
func (m *LSTMMLP) predictOne(g *phantom.Graph, i phantom.Slot) *tensor.Matrix {
	seq := m.scale.targetSeq(g, i)
	hs := m.lstm.Forward(seq)
	return m.mlp.Forward(hs[len(hs)-1])
}

// Predict implements Model, looping over targets one at a time.
func (m *LSTMMLP) Predict(g *phantom.Graph) Prediction {
	var p Prediction
	for i := phantom.Slot(0); i < phantom.NumSlots; i++ {
		y := m.predictOne(g, i)
		p[i] = m.scale.unscaleRow(y.Row(0))
	}
	return p
}

// TrainBatch implements Model.
func (m *LSTMMLP) TrainBatch(batch []*ngsim.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	nn.ZeroGrads(m)
	total, n := 0.0, 0
	for _, s := range batch {
		for i := phantom.Slot(0); i < phantom.NumSlots; i++ {
			if s.Mask[i] {
				continue
			}
			y := m.predictOne(s.Graph, i)
			st := m.scale.scaleTruth(s.Truth[i])
			grad := tensor.New(1, OutputDim)
			total += nn.MSE(y, tensor.FromSlice(1, OutputDim, st[:]), grad)
			n++
			dh := m.mlp.Backward(grad)
			dHidden := make([]*tensor.Matrix, len(s.Graph.Steps))
			dHidden[len(dHidden)-1] = dh
			m.lstm.Backward(dHidden)
		}
	}
	if n == 0 {
		return 0
	}
	nn.ClipGradNorm(m, 5)
	m.opt.Step(m)
	return total / float64(n)
}

// EDLSTM is the sequence-to-sequence "encoder-decoder LSTM" baseline (Park
// et al.): an encoder LSTM summarizes the target's history into a context
// vector, and a one-step decoder LSTM consumes the context to emit the
// future state. As with LSTM-MLP, each target is computed separately.
type EDLSTM struct {
	enc   *nn.LSTM
	dec   *nn.LSTM
	out   *nn.Linear
	opt   *nn.Adam
	scale scaler
}

// NewEDLSTM builds the ED-LSTM baseline.
func NewEDLSTM(cfg BaselineConfig, rng *rand.Rand) *EDLSTM {
	m := &EDLSTM{
		enc:   nn.NewLSTM("edlstm.enc", phantom.FeatureDim, cfg.HiddenDim, rng),
		dec:   nn.NewLSTM("edlstm.dec", cfg.HiddenDim, cfg.HiddenDim, rng),
		out:   nn.NewLinear("edlstm.out", cfg.HiddenDim, OutputDim, rng),
		opt:   nn.NewAdam(cfg.LR),
		scale: defaultScaler(),
	}
	return m
}

// Name implements Model.
func (m *EDLSTM) Name() string { return "ED-LSTM" }

// Params implements nn.Module.
func (m *EDLSTM) Params() []*nn.Param {
	ps := m.enc.Params()
	ps = append(ps, m.dec.Params()...)
	return append(ps, m.out.Params()...)
}

func (m *EDLSTM) predictOne(g *phantom.Graph, i phantom.Slot) *tensor.Matrix {
	seq := m.scale.targetSeq(g, i)
	hs := m.enc.Forward(seq)
	ctx := hs[len(hs)-1]
	dh := m.dec.Forward([]*tensor.Matrix{ctx})
	return m.out.Forward(dh[0])
}

// Predict implements Model.
func (m *EDLSTM) Predict(g *phantom.Graph) Prediction {
	var p Prediction
	for i := phantom.Slot(0); i < phantom.NumSlots; i++ {
		y := m.predictOne(g, i)
		p[i] = m.scale.unscaleRow(y.Row(0))
	}
	return p
}

// TrainBatch implements Model.
func (m *EDLSTM) TrainBatch(batch []*ngsim.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	nn.ZeroGrads(m)
	total, n := 0.0, 0
	for _, s := range batch {
		for i := phantom.Slot(0); i < phantom.NumSlots; i++ {
			if s.Mask[i] {
				continue
			}
			y := m.predictOne(s.Graph, i)
			st := m.scale.scaleTruth(s.Truth[i])
			grad := tensor.New(1, OutputDim)
			total += nn.MSE(y, tensor.FromSlice(1, OutputDim, st[:]), grad)
			n++
			dOut := m.out.Backward(grad)
			dCtx := m.dec.Backward([]*tensor.Matrix{dOut})
			dHidden := make([]*tensor.Matrix, len(s.Graph.Steps))
			dHidden[len(dHidden)-1] = dCtx[0]
			m.enc.Backward(dHidden)
		}
	}
	if n == 0 {
		return 0
	}
	nn.ClipGradNorm(m, 5)
	m.opt.Step(m)
	return total / float64(n)
}

// GASLED is the "global attention and state sharing LSTM encoder-decoder"
// baseline from the prediction-and-search framework (Liu et al., KDD'21):
// every target's history is encoded separately by a shared LSTM, a global
// attention layer lets each target attend to the encoder states of all six
// targets, and a linear decoder emits the future state. Unlike LST-GAT it
// attends globally after temporal encoding and computes the per-target
// encoders sequentially.
type GASLED struct {
	enc   *nn.LSTM
	attn  *nn.GAT
	out   *nn.Linear
	opt   *nn.Adam
	scale scaler
}

// NewGASLED builds the GAS-LED baseline. Its global attention keeps the
// same residual connection as LST-GAT so the comparison isolates the
// architectural differences the paper discusses (local vs global
// attention, before vs after temporal encoding, parallel vs per-vehicle
// decoding).
func NewGASLED(cfg BaselineConfig, rng *rand.Rand) *GASLED {
	attn := nn.NewGAT("gasled.attn", cfg.HiddenDim, cfg.HiddenDim, cfg.HiddenDim, rng)
	attn.Residual = true
	m := &GASLED{
		enc:   nn.NewLSTM("gasled.enc", phantom.FeatureDim, cfg.HiddenDim, rng),
		attn:  attn,
		out:   nn.NewLinear("gasled.out", cfg.HiddenDim, OutputDim, rng),
		opt:   nn.NewAdam(cfg.LR),
		scale: defaultScaler(),
	}
	return m
}

// Name implements Model.
func (m *GASLED) Name() string { return "GAS-LED" }

// Params implements nn.Module.
func (m *GASLED) Params() []*nn.Param {
	ps := m.enc.Params()
	ps = append(ps, m.attn.Params()...)
	return append(ps, m.out.Params()...)
}

// encodeAll encodes every target sequentially (state sharing through the
// common encoder weights) and stacks the final hidden states.
func (m *GASLED) encodeAll(g *phantom.Graph) ([]*nn.LSTM, *tensor.Matrix) {
	encoders := make([]*nn.LSTM, phantom.NumSlots)
	hidden := tensor.New(phantom.NumSlots, m.enc.Hidden)
	for i := phantom.Slot(0); i < phantom.NumSlots; i++ {
		enc := m.enc.Share()
		hs := enc.Forward(m.scale.targetSeq(g, i))
		copy(hidden.Row(int(i)), hs[len(hs)-1].Row(0))
		encoders[i] = enc
	}
	return encoders, hidden
}

// globalTargets and globalNbrs let every target attend to all targets
// (including itself).
var globalTargets, globalNbrs = func() ([]int, [][]int) {
	all := make([]int, phantom.NumSlots)
	for i := range all {
		all[i] = i
	}
	targets := make([]int, phantom.NumSlots)
	nbrs := make([][]int, phantom.NumSlots)
	for i := 0; i < phantom.NumSlots; i++ {
		targets[i] = i
		nbrs[i] = all
	}
	return targets, nbrs
}()

func (m *GASLED) forward(g *phantom.Graph) ([]*nn.LSTM, *tensor.Matrix) {
	encoders, hidden := m.encodeAll(g)
	ctx := m.attn.Forward(hidden, globalTargets, globalNbrs)
	return encoders, m.out.Forward(ctx)
}

// Predict implements Model.
func (m *GASLED) Predict(g *phantom.Graph) Prediction {
	_, y := m.forward(g)
	var p Prediction
	for i := 0; i < phantom.NumSlots; i++ {
		p[i] = m.scale.unscaleRow(y.Row(i))
	}
	return p
}

// TrainBatch implements Model.
func (m *GASLED) TrainBatch(batch []*ngsim.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	nn.ZeroGrads(m)
	total := 0.0
	for _, s := range batch {
		encoders, y := m.forward(s.Graph)
		target := tensor.New(phantom.NumSlots, OutputDim)
		for i := 0; i < phantom.NumSlots; i++ {
			if s.Mask[i] {
				copy(target.Row(i), y.Row(i))
				continue
			}
			st := m.scale.scaleTruth(s.Truth[i])
			copy(target.Row(i), st[:])
		}
		grad := tensor.New(phantom.NumSlots, OutputDim)
		total += nn.MSE(y, target, grad)
		dCtx := m.out.Backward(grad)
		dHidden := m.attn.Backward(dCtx)
		for i, enc := range encoders {
			dRow := tensor.New(1, m.enc.Hidden)
			copy(dRow.Row(0), dHidden.Row(i))
			dSeq := make([]*tensor.Matrix, len(s.Graph.Steps))
			dSeq[len(dSeq)-1] = dRow
			enc.Backward(dSeq)
		}
	}
	nn.ClipGradNorm(m, 5)
	m.opt.Step(m)
	return total / float64(len(batch))
}
