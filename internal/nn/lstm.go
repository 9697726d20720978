package nn

import (
	"math"
	"math/rand"

	"head/internal/tensor"
)

// LSTM is a standard long short-term memory recurrent layer (Hochreiter &
// Schmidhuber) processing a sequence of batch matrices. Gate weights are
// packed input/forget/cell/output side by side in 4H-wide matrices. The
// initial hidden and cell states are zero, matching Equation (12)'s
// convention that h defaults to zeros at τ = t−z+1.
type LSTM struct {
	In, Hidden int
	Wx         *Param // In×4H input weights
	Wh         *Param // H×4H recurrent weights
	B          *Param // 1×4H bias

	// forward caches, one entry per time step; the matrices live in ws
	// and stay valid until the next Forward resets it. gates holds the
	// activated input/forget/cell/output gates side by side (batch×4H).
	xs, hs, cs    []*tensor.Matrix
	gates, tanhCs []*tensor.Matrix
	dxs           []*tensor.Matrix
	ws            tensor.Workspace
	params        []*Param
}

// NewLSTM returns a Xavier-initialized LSTM with the given input and hidden
// sizes. The forget-gate bias is initialized to 1, the common trick that
// stabilizes early training.
func NewLSTM(name string, in, hidden int, rng *rand.Rand) *LSTM {
	l := &LSTM{
		In:     in,
		Hidden: hidden,
		Wx:     NewParam(name+".Wx", in, 4*hidden),
		Wh:     NewParam(name+".Wh", hidden, 4*hidden),
		B:      NewParam(name+".b", 1, 4*hidden),
	}
	l.Wx.W.XavierInit(rng, in, hidden)
	l.Wh.W.XavierInit(rng, hidden, hidden)
	for j := hidden; j < 2*hidden; j++ {
		l.B.W.Data[j] = 1 // forget gate bias
	}
	l.params = []*Param{l.Wx, l.Wh, l.B}
	return l
}

// Params implements Module. Prebuilt with len == cap at construction so
// per-step parameter walks allocate nothing.
func (l *LSTM) Params() []*Param { return l.params }

// Share returns a new LSTM that shares l's parameters but has independent
// forward caches, so the same recurrent weights can encode several
// sequences within one backward pass.
func (l *LSTM) Share() *LSTM {
	s := &LSTM{In: l.In, Hidden: l.Hidden, Wx: l.Wx, Wh: l.Wh, B: l.B}
	s.params = []*Param{s.Wx, s.Wh, s.B}
	return s
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Forward runs the LSTM over seq (each element a batch×In matrix for one
// time step) and returns the hidden state batch×Hidden at every step. All
// target vehicles are processed in parallel as rows of the batch, which is
// the batched-sequence parallelism the paper relies on for efficiency; a
// one-row batch is the single-sequence case. Rows are independent, so row
// e of a batch is bit-identical to a one-row pass over row e. Every pass
// fills the backward caches, so Backward is valid after any Forward.
func (l *LSTM) Forward(seq []*tensor.Matrix) []*tensor.Matrix {
	n := len(seq)
	l.ws.Reset()
	l.xs = append(l.xs[:0], seq...)
	l.hs = growPtrs(l.hs, n)
	l.cs = growPtrs(l.cs, n)
	l.gates = growPtrs(l.gates, n)
	l.tanhCs = growPtrs(l.tanhCs, n)
	if n == 0 {
		return nil
	}
	batch := seq[0].Rows
	H := l.Hidden
	hPrev := l.ws.GetZero(batch, H)
	cPrev := l.ws.GetZero(batch, H)
	for t, x := range seq {
		z := l.ws.Get(batch, 4*H)
		// The fused pre-activation (Σx·Wx + Σh·Wh) + b runs on the block
		// kernel against the canonical weights.
		tensor.MatMulDualAddBiasBlockInto(z, x, l.Wx.W, hPrev, l.Wh.W, l.B.W)
		c := l.ws.Get(batch, H)
		tc := l.ws.Get(batch, H)
		h := l.ws.Get(batch, H)
		for r := 0; r < batch; r++ {
			zr := z.Row(r)
			// One subslice per gate block and cache row hoists the
			// address arithmetic and bounds checks out of the element loop.
			zi := zr[:H]
			zf := zr[H : 2*H]
			zg := zr[2*H : 3*H]
			zo := zr[3*H : 4*H]
			cpr := cPrev.Row(r)[:H]
			cr, tcr, hr := c.Row(r)[:H], tc.Row(r)[:H], h.Row(r)[:H]
			for j := 0; j < H; j++ {
				iv := sigmoid(zi[j])
				fv := sigmoid(zf[j])
				gv := math.Tanh(zg[j])
				ov := sigmoid(zo[j])
				// Each activated gate overwrites its pre-activation, so z
				// becomes this step's gate cache for Backward.
				zi[j], zf[j], zg[j], zo[j] = iv, fv, gv, ov
				cv := fv*cpr[j] + iv*gv
				tcv := math.Tanh(cv)
				cr[j], tcr[j] = cv, tcv
				hr[j] = ov * tcv
			}
		}
		l.gates[t] = z
		l.cs[t], l.tanhCs[t], l.hs[t] = c, tc, h
		hPrev, cPrev = h, c
	}
	return l.hs
}

// Backward runs backpropagation through time. dHidden holds the loss
// gradient with respect to the hidden state at each step; nil entries are
// treated as zero (e.g. when the loss only touches the final step).
// Parameter gradients accumulate; the returned slice is the gradient with
// respect to each input step.
func (l *LSTM) Backward(dHidden []*tensor.Matrix) []*tensor.Matrix {
	n := len(l.xs)
	if n == 0 {
		return nil
	}
	batch := l.hs[0].Rows
	H := l.Hidden
	l.dxs = growPtrs(l.dxs, n)
	// One read-only zero matrix stands for the state before step 0 and
	// for the gradients flowing in from after the last step.
	zero := l.ws.GetZero(batch, H)
	dhNext, dcNext := zero, zero
	for t := n - 1; t >= 0; t-- {
		dh := dhNext
		if t < len(dHidden) && dHidden[t] != nil {
			sum := l.ws.Get(batch, H)
			tensor.AddInto(sum, dhNext, dHidden[t])
			dh = sum
		}
		gates, tc := l.gates[t], l.tanhCs[t]
		cPrev, hPrev := zero, zero
		if t > 0 {
			cPrev, hPrev = l.cs[t-1], l.hs[t-1]
		}
		dz := l.ws.Get(batch, 4*H)
		dcPrev := l.ws.Get(batch, H)
		for r := 0; r < batch; r++ {
			gr, dzr := gates.Row(r), dz.Row(r)
			gi, gf, gg, gor := gr[:H], gr[H:2*H], gr[2*H:3*H], gr[3*H:4*H]
			dzi, dzf, dzg, dzo := dzr[:H], dzr[H:2*H], dzr[2*H:3*H], dzr[3*H:4*H]
			dhr, tcr := dh.Row(r)[:H], tc.Row(r)[:H]
			dcn, cpr, dcp := dcNext.Row(r)[:H], cPrev.Row(r)[:H], dcPrev.Row(r)[:H]
			for j := 0; j < H; j++ {
				dhv := dhr[j]
				ov, tcv := gor[j], tcr[j]
				dc := dcn[j] + dhv*ov*(1-tcv*tcv)
				do := dhv * tcv
				iv, fv, gv := gi[j], gf[j], gg[j]
				di := dc * gv
				df := dc * cpr[j]
				dg := dc * iv
				dcp[j] = dc * fv
				dzi[j] = di * iv * (1 - iv)
				dzf[j] = df * fv * (1 - fv)
				dzg[j] = dg * (1 - gv*gv)
				dzo[j] = do * ov * (1 - ov)
			}
		}
		tensor.AddMatMulTransABlockInto(l.Wx.Grad, l.xs[t], dz)
		tensor.AddMatMulTransABlockInto(l.Wh.Grad, hPrev, dz)
		for r := 0; r < batch; r++ {
			row := dz.Row(r)
			for j, gv := range row {
				l.B.Grad.Data[j] += gv
			}
		}
		dx := l.ws.Get(batch, l.In)
		tensor.MatMulDotInto(dx, dz, l.Wx.W)
		l.dxs[t] = dx
		// dz·Whᵀ is the hidden gradient of step t−1; step 0 has none.
		if t > 0 {
			dhN := l.ws.Get(batch, H)
			tensor.MatMulDotInto(dhN, dz, l.Wh.W)
			dhNext = dhN
		}
		dcNext = dcPrev
	}
	return l.dxs
}
