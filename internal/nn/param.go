// Package nn is a small, dependency-free neural network library with
// hand-written backpropagation. It provides exactly the building blocks the
// HEAD paper's models need: fully connected layers, ReLU/Tanh
// activations, an LSTM with backpropagation through time, the graph
// attention layer of Equations (10)–(11), mean squared error, SGD and Adam
// optimizers, gradient clipping, and soft target-network updates.
//
// Layers cache their most recent forward inputs, so a layer instance must
// not be shared between concurrent forward/backward passes.
package nn

import (
	"fmt"
	"math"

	"head/internal/tensor"
)

// Param is a trainable parameter: a value matrix and its accumulated
// gradient. Optimizers consume and reset the gradient.
type Param struct {
	Name string
	W    *tensor.Matrix
	Grad *tensor.Matrix
}

// NewParam allocates a named rows×cols parameter with a zero gradient.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), Grad: tensor.New(rows, cols)}
}

// ZeroGrad resets the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Module is anything that exposes trainable parameters.
type Module interface {
	Params() []*Param
}

// ZeroGrads resets the gradients of every parameter of m.
func ZeroGrads(m Module) {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// CountParams returns the total number of scalar parameters of m.
func CountParams(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.W.Data)
	}
	return n
}

// ClipGradNorm scales all gradients of m so that their global L2 norm does
// not exceed maxNorm, and returns the pre-clip norm. A non-positive maxNorm
// disables clipping.
func ClipGradNorm(m Module, maxNorm float64) float64 {
	total := 0.0
	params := m.Params()
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / (norm + 1e-12)
		for _, p := range params {
			tensor.ScaleInPlace(p.Grad, scale)
		}
	}
	return norm
}

// CopyParams copies every parameter value of src into dst. The two modules
// must have identical parameter shapes in identical order (e.g. two
// instances built by the same constructor), as used for target networks.
func CopyParams(dst, src Module) {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		panic(fmt.Sprintf("nn: CopyParams parameter count mismatch %d vs %d", len(dp), len(sp)))
	}
	for i := range dp {
		if dp[i].W.Rows != sp[i].W.Rows || dp[i].W.Cols != sp[i].W.Cols {
			panic(fmt.Sprintf("nn: CopyParams shape mismatch at %d (%s)", i, sp[i].Name))
		}
		copy(dp[i].W.Data, sp[i].W.Data)
	}
}

// SoftUpdate blends src into dst with ratio tau: dst ← τ·src + (1−τ)·dst.
// This is the target-network stabilization of DDPG/P-DQN training.
func SoftUpdate(dst, src Module, tau float64) {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		panic(fmt.Sprintf("nn: SoftUpdate parameter count mismatch %d vs %d", len(dp), len(sp)))
	}
	for i := range dp {
		d, s := dp[i].W.Data, sp[i].W.Data
		for j := range d {
			d[j] = tau*s[j] + (1-tau)*d[j]
		}
	}
}
