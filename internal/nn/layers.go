package nn

import (
	"fmt"
	"math"
	"math/rand"

	"head/internal/tensor"
)

// Layer is a differentiable transformation of a batch matrix. Forward
// caches whatever Backward needs; Backward consumes the gradient of the
// loss with respect to the layer output and returns the gradient with
// respect to the layer input, accumulating parameter gradients as a side
// effect.
type Layer interface {
	Module
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(dy *tensor.Matrix) *tensor.Matrix
}

// Linear is a fully connected layer y = x·W + b with W of shape in×out and
// a broadcast bias row b of shape 1×out. Forward output and backward
// scratch come from a per-instance workspace: both are valid until the
// next Forward, and steady-state passes allocate nothing.
type Linear struct {
	In, Out int
	Weight  *Param
	Bias    *Param
	// SampleRows is how many consecutive input rows make one sample; 0
	// makes the whole batch one sample. Backward adds each sample's
	// complete weight-gradient sum to Weight.Grad once, samples in row
	// order, so one Backward over B samples leaves every gradient
	// bit-identical to B Backward calls over one sample each.
	SampleRows int
	// NoInputGrad makes Backward skip the input gradient and return nil,
	// for a first layer whose input needs none.
	NoInputGrad bool
	lastX       *tensor.Matrix
	xv, dv      tensor.Matrix // one sample's rows of lastX and dy
	ws          tensor.Workspace
	params      []*Param
}

// NewLinear returns a Xavier-initialized in→out fully connected layer.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In:     in,
		Out:    out,
		Weight: NewParam(name+".W", in, out),
		Bias:   NewParam(name+".b", 1, out),
	}
	l.Weight.W.XavierInit(rng, in, out)
	l.params = []*Param{l.Weight, l.Bias}
	return l
}

// Params implements Module. The slice is built once at construction so the
// per-step parameter walks (ZeroGrads, clipping, optimizer steps, target
// soft-updates) allocate nothing; it has len == cap, so appending to it
// always copies.
func (l *Linear) Params() []*Param { return l.params }

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.lastX = x
	l.ws.Reset()
	y := l.ws.Get(x.Rows, l.Out)
	tensor.MatMulAddBiasBlockInto(y, x, l.Weight.W, l.Bias.W)
	return y
}

// Backward implements Layer.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	// dW += xᵀ·dy one sample at a time, db += column sums of dy row by
	// row, dx = dy·Wᵀ.
	if n := l.SampleRows; n <= 0 || n == dy.Rows {
		tensor.AddMatMulTransABlockInto(l.Weight.Grad, l.lastX, dy)
	} else {
		if dy.Rows%n != 0 {
			panic(fmt.Sprintf("nn: Linear backward over %d rows, not a whole number of %d-row samples", dy.Rows, n))
		}
		for lo := 0; lo < dy.Rows; lo += n {
			tensor.AddMatMulTransABlockInto(l.Weight.Grad, rowsOf(&l.xv, l.lastX, lo, n), rowsOf(&l.dv, dy, lo, n))
		}
	}
	for i := 0; i < dy.Rows; i++ {
		row := dy.Row(i)
		for j, g := range row {
			l.Bias.Grad.Data[j] += g
		}
	}
	if l.NoInputGrad {
		return nil
	}
	return l.InputGrad(dy)
}

// InputGrad returns dy·Wᵀ, the gradient with respect to the last
// Forward's input, and writes no parameter gradient. Backward returns the
// same bits.
func (l *Linear) InputGrad(dy *tensor.Matrix) *tensor.Matrix {
	// The canonical weight matrix is already the transposed operand the
	// dot kernel wants for dy·Wᵀ.
	dx := l.ws.Get(dy.Rows, l.In)
	tensor.MatMulDotInto(dx, dy, l.Weight.W)
	return dx
}

// rowsOf repoints view at rows [lo, lo+n) of m and returns it.
func rowsOf(view, m *tensor.Matrix, lo, n int) *tensor.Matrix {
	view.Rows, view.Cols, view.Data = n, m.Cols, m.Data[lo*m.Cols:(lo+n)*m.Cols]
	return view
}

// ReLU is the rectified linear activation, computed in place: Forward
// writes its output over its input and keeps it, and Backward writes the
// input gradient over the incoming one. Both buffers must therefore be
// scratch that nothing reads afterwards. Every ReLU here follows a Linear
// inside a Sequential, so its input is that Linear's output, and its
// incoming gradient is the next Linear's input gradient or its network's
// scratch.
type ReLU struct {
	y *tensor.Matrix
}

// Params implements Module.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer: y = v where v > 0, else +0 (NaN included).
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	d := x.Data
	for i, v := range d {
		d[i] = math.Float64frombits(math.Float64bits(v) & positive(v))
	}
	r.y = x
	return x
}

// Backward implements Layer: dy where the output is positive, else dy·0,
// the bits of multiplying dy by a 1/0 mask.
func (r *ReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	d := dy.Data
	y := r.y.Data[:len(d)]
	for i, g := range d {
		d[i] = g * math.Float64frombits(positive(y[i])&oneBits)
	}
	return dy
}

// oneBits is the bit pattern of 1.0.
const oneBits = 0x3FF0000000000000

// positive returns all ones when v > 0 and zero otherwise, NaN included.
// The conditional integer assignment compiles to a conditional move, so
// the activations run without sign branches.
func positive(v float64) uint64 {
	var m uint64
	if v > 0 {
		m = ^uint64(0)
	}
	return m
}

// LeakyReLUSlope is the negative-side slope used by the graph attention
// mechanism, matching the GAT reference implementation.
const LeakyReLUSlope = 0.2

// Tanh is the hyperbolic tangent activation.
type Tanh struct {
	lastY *tensor.Matrix
	ws    tensor.Workspace
}

// Params implements Module.
func (t *Tanh) Params() []*Param { return nil }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Matrix) *tensor.Matrix {
	t.ws.Reset()
	t.lastY = t.ws.Get(x.Rows, x.Cols)
	tensor.TanhInto(t.lastY, x)
	return t.lastY
}

// Backward implements Layer.
func (t *Tanh) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := t.ws.Get(dy.Rows, dy.Cols)
	for i, g := range dy.Data {
		y := t.lastY.Data[i]
		dx.Data[i] = g * (1 - y*y)
	}
	return dx
}

// Sequential chains layers so that the output of each feeds the next.
type Sequential struct {
	Layers []Layer
	params []*Param
}

// NewSequential returns a Sequential over the given layers.
func NewSequential(layers ...Layer) *Sequential {
	s := &Sequential{Layers: layers}
	n := 0
	for _, l := range layers {
		n += len(l.Params())
	}
	s.params = make([]*Param, 0, n)
	for _, l := range layers {
		s.params = append(s.params, l.Params()...)
	}
	return s
}

// Params implements Module. Like Linear's, the slice is prebuilt with
// len == cap at construction so per-step parameter walks allocate nothing
// and caller appends always copy.
func (s *Sequential) Params() []*Param { return s.params }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(dy *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// InputGrad returns the gradient with respect to the last Forward's input
// and writes no parameter gradient: each Linear runs its InputGrad, and
// every other layer must be a parameter-free activation. Backward returns
// the same bits.
func (s *Sequential) InputGrad(dy *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		l := s.Layers[i]
		if lin, ok := l.(*Linear); ok {
			dy = lin.InputGrad(dy)
			continue
		}
		if len(l.Params()) != 0 {
			panic(fmt.Sprintf("nn: Sequential.InputGrad through layer %d with parameters", i))
		}
		dy = l.Backward(dy)
	}
	return dy
}

// NewMLP builds a Linear→ReLU→…→Linear multilayer perceptron with the given
// layer sizes (sizes[0] is the input width, sizes[len-1] the output width).
// No activation follows the final Linear.
func NewMLP(name string, sizes []int, rng *rand.Rand) *Sequential {
	var layers []Layer
	for i := 0; i+1 < len(sizes); i++ {
		layers = append(layers, NewLinear(name+itoa(i), sizes[i], sizes[i+1], rng))
		if i+2 < len(sizes) {
			layers = append(layers, &ReLU{})
		}
	}
	return NewSequential(layers...)
}

func itoa(i int) string {
	if i == 0 {
		return ".0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return "." + string(b)
}
