package nn

import (
	"math"

	"head/internal/tensor"
)

// Optimizer applies accumulated gradients to a module's parameters and
// resets them.
type Optimizer interface {
	Step(m Module)
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	velocity map[*Param]*tensor.Matrix
}

// NewSGD returns an SGD optimizer with the given learning rate and
// momentum (0 for vanilla SGD).
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*Param]*tensor.Matrix)}
}

// Step implements Optimizer.
func (o *SGD) Step(m Module) {
	for _, p := range m.Params() {
		if o.Momentum > 0 {
			v, ok := o.velocity[p]
			if !ok {
				v = tensor.New(p.W.Rows, p.W.Cols)
				o.velocity[p] = v
			}
			for i := range v.Data {
				v.Data[i] = o.Momentum*v.Data[i] - o.LR*p.Grad.Data[i]
				p.W.Data[i] += v.Data[i]
			}
		} else {
			for i := range p.W.Data {
				p.W.Data[i] -= o.LR * p.Grad.Data[i]
			}
		}
		p.ZeroGrad()
	}
}

// Adam is the Adam optimizer (Kingma & Ba), the optimizer used for both
// LST-GAT and BP-DQN in the paper (lr = 0.001 by default).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*Param]*tensor.Matrix
}

// NewAdam returns an Adam optimizer with standard hyperparameters
// (β1 = 0.9, β2 = 0.999, ε = 1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		m:     make(map[*Param]*tensor.Matrix),
		v:     make(map[*Param]*tensor.Matrix),
	}
}

// Step implements Optimizer.
func (o *Adam) Step(mod Module) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range mod.Params() {
		m, ok := o.m[p]
		if !ok {
			m = tensor.New(p.W.Rows, p.W.Cols)
			o.m[p] = m
			o.v[p] = tensor.New(p.W.Rows, p.W.Cols)
		}
		v := o.v[p]
		for i, g := range p.Grad.Data {
			m.Data[i] = o.Beta1*m.Data[i] + (1-o.Beta1)*g
			v.Data[i] = o.Beta2*v.Data[i] + (1-o.Beta2)*g*g
			mHat := m.Data[i] / bc1
			vHat := v.Data[i] / bc2
			p.W.Data[i] -= o.LR * mHat / (math.Sqrt(vHat) + o.Eps)
		}
		p.ZeroGrad()
	}
}

// MSE returns ½·mean squared error between pred and target and writes the
// gradient with respect to pred into the caller-owned grad, which must
// have pred's shape and may alias neither input. The ½ factor makes
// dLoss/dPred simply (pred − target)/n, matching the loss definitions L1
// and L2 of the paper.
func MSE(pred, target, grad *tensor.Matrix) float64 {
	if pred.Rows != target.Rows || pred.Cols != target.Cols || grad.Rows != pred.Rows || grad.Cols != pred.Cols {
		panic("nn: MSE shape mismatch")
	}
	n := float64(len(pred.Data))
	loss := 0.0
	for i, p := range pred.Data {
		d := p - target.Data[i]
		loss += 0.5 * d * d
		grad.Data[i] = d / n
	}
	return loss / n
}
