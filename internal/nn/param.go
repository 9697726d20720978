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
	"math/rand"

	"head/internal/tensor"
)

// Param is a trainable parameter: a value matrix and its accumulated
// gradient. Optimizers consume and reset the gradient.
type Param struct {
	Name string
	W    *tensor.Matrix
	Grad *tensor.Matrix
	h    *tensor.Weights // lazy generation-counted transpose cache over W
}

// NewParam allocates a named rows×cols parameter with a zero gradient.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), Grad: tensor.New(rows, cols)}
}

// ZeroGrad resets the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// H returns the parameter's tensor.Weights handle: the generation-counted
// cache of the transpose the dot kernels compute against. Created on first
// use, so params built by struct literal work too.
func (p *Param) H() *tensor.Weights {
	if p.h == nil {
		p.h = tensor.NewWeights(p.W)
	}
	return p.h
}

// Touch invalidates the cached transpose after a mutation of W.Data. Every
// weight-mutation site in this package (optimizer steps, CopyParams,
// SoftUpdate, Load, init) calls it; code that writes W.Data directly must
// do the same before the next forward.
func (p *Param) Touch() {
	if p.h != nil {
		p.h.Touch()
	}
}

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

// GradientsInto copies m's accumulated gradients into dst, one slice per
// parameter in Params order, and returns it. dst's storage is reused once
// it has the right shape (nil is fine), so a snapshot per step allocates
// nothing after the first. Data-parallel trainers use it to ship a worker
// replica's gradient contribution back to the coordinator.
func GradientsInto(dst [][]float64, m Module) [][]float64 {
	params := m.Params()
	if len(dst) != len(params) {
		dst = make([][]float64, len(params))
	}
	for i, p := range params {
		dst[i] = append(dst[i][:0], p.Grad.Data...)
	}
	return dst
}

// AddGradients accumulates a snapshot taken by GradientsInto (on an
// identically shaped module) into m's gradients. Reducing worker snapshots
// in a fixed order keeps the floating-point sum independent of scheduling.
func AddGradients(m Module, grads [][]float64) {
	params := m.Params()
	if len(params) != len(grads) {
		panic(fmt.Sprintf("nn: AddGradients parameter count mismatch %d vs %d", len(params), len(grads)))
	}
	for i, p := range params {
		if len(p.Grad.Data) != len(grads[i]) {
			panic(fmt.Sprintf("nn: AddGradients shape mismatch at %d (%s)", i, p.Name))
		}
		for j, g := range grads[i] {
			p.Grad.Data[j] += g
		}
	}
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
		dp[i].Touch()
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
		dp[i].Touch()
	}
}

// xavier initializes p for a layer with the given fan-in/out.
func xavier(p *Param, rng *rand.Rand, fanIn, fanOut int) {
	p.W.XavierInit(rng, fanIn, fanOut)
	p.Touch()
}
