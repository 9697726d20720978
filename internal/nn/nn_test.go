package nn

import (
	"math"
	"math/rand"
	"testing"

	"head/internal/tensor"
)

// checkGrads computes the numerical gradient of loss() with respect to
// every parameter of m via central differences and compares it against the
// analytic gradient already accumulated in the params.
func checkGrads(t *testing.T, m Module, loss func() float64, tol float64) {
	t.Helper()
	const eps = 1e-6
	for _, p := range m.Params() {
		for i := range p.W.Data {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := loss()
			p.W.Data[i] = orig - eps
			lm := loss()
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := p.Grad.Data[i]
			if math.Abs(num-ana) > tol*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: analytic %g vs numeric %g", p.Name, i, ana, num)
			}
		}
	}
}

func TestLinearForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("l", 2, 2, rng)
	copy(l.Weight.W.Data, []float64{1, 2, 3, 4})
	copy(l.Bias.W.Data, []float64{10, 20})
	y := l.Forward(tensor.FromSlice(1, 2, []float64{1, 1}))
	want := tensor.FromSlice(1, 2, []float64{14, 26})
	if !tensor.Equal(y, want, 1e-12) {
		t.Errorf("Forward = %v, want %v", y, want)
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("l", 3, 2, rng)
	x := tensor.New(4, 3)
	x.RandUniform(rng, 1)
	target := tensor.New(4, 2)
	target.RandUniform(rng, 1)
	loss := func() float64 {
		lv, _ := mse(l.Forward(x), target)
		return lv
	}
	ZeroGrads(l)
	_, g := mse(l.Forward(x), target)
	l.Backward(g)
	checkGrads(t, l, loss, 1e-5)
}

func TestActivations(t *testing.T) {
	// ReLU computes in place, so each layer call gets its own input.
	input := func() *tensor.Matrix { return tensor.FromSlice(1, 3, []float64{-2, 0, 3}) }
	r := (&ReLU{}).Forward(input())
	if !tensor.Equal(r, tensor.FromSlice(1, 3, []float64{0, 0, 3}), 0) {
		t.Errorf("ReLU = %v", r)
	}
	th := (&Tanh{}).Forward(input())
	if math.Abs(th.At(0, 2)-math.Tanh(3)) > 1e-12 {
		t.Errorf("Tanh = %v", th)
	}
}

func TestActivationBackward(t *testing.T) {
	// ReLU computes in place, so each layer call gets its own input and
	// incoming gradient.
	input := func() *tensor.Matrix { return tensor.FromSlice(1, 4, []float64{-2, -0.5, 0.5, 3}) }
	ones := func() *tensor.Matrix { return tensor.FromSlice(1, 4, []float64{1, 1, 1, 1}) }
	relu := &ReLU{}
	relu.Forward(input())
	if got := relu.Backward(ones()); !tensor.Equal(got, tensor.FromSlice(1, 4, []float64{0, 0, 1, 1}), 0) {
		t.Errorf("ReLU backward = %v", got)
	}
	x := input()
	tanh := &Tanh{}
	tanh.Forward(x)
	got := tanh.Backward(ones())
	for j := 0; j < 4; j++ {
		want := 1 - math.Pow(math.Tanh(x.At(0, j)), 2)
		if math.Abs(got.At(0, j)-want) > 1e-12 {
			t.Errorf("Tanh backward[%d] = %g, want %g", j, got.At(0, j), want)
		}
	}
}

// TestReLUInPlaceBits pins the in-place ReLU to the formulas of the
// mask-based one it replaced, bit for bit: y = v if v > 0 else +0, and
// dx = dy·mask with mask 1 where v > 0 and 0 elsewhere. Inputs and
// gradients cover ±0, ±Inf, NaN and subnormals, and both passes must
// return the matrix they were given.
func TestReLUInPlaceBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	specials := []float64{0, negZero, math.Inf(1), math.Inf(-1), math.NaN(), sub, -sub, 1e-310, -1e-310, 1.5, -2.5}
	n := len(specials)
	vs := make([]float64, 0, n*n)
	gs := make([]float64, 0, n*n)
	for _, v := range specials {
		for _, g := range specials {
			vs = append(vs, v)
			gs = append(gs, g)
		}
	}
	x := tensor.FromSlice(n, n, append([]float64(nil), vs...))
	dy := tensor.FromSlice(n, n, append([]float64(nil), gs...))
	r := &ReLU{}
	y := r.Forward(x)
	if y != x {
		t.Fatal("ReLU.Forward returned a matrix other than its input")
	}
	dx := r.Backward(dy)
	if dx != dy {
		t.Fatal("ReLU.Backward returned a matrix other than its incoming gradient")
	}
	for i, v := range vs {
		wantY, mask := 0.0, 0.0
		if v > 0 {
			wantY, mask = v, 1
		}
		wantDx := gs[i] * mask
		if math.Float64bits(y.Data[i]) != math.Float64bits(wantY) {
			t.Errorf("ReLU(%v) = %v (bits %x), want %v", v, y.Data[i], math.Float64bits(y.Data[i]), wantY)
		}
		if math.Float64bits(dx.Data[i]) != math.Float64bits(wantDx) {
			t.Errorf("ReLU backward at v=%v, dy=%v = %v (bits %x), want %v (bits %x)",
				v, gs[i], dx.Data[i], math.Float64bits(dx.Data[i]), wantDx, math.Float64bits(wantDx))
		}
	}
}

// TestLinearPerSampleGrad pins nn.Linear's per-sample gradient rule: with
// n rows per sample, one Backward over B·n rows must leave Weight.Grad,
// Bias.Grad and the input gradient bit-identical to B Backward calls over
// the n-row blocks, in order. Inputs and gradients hold exact zeros and
// −0, so the +0 start of every per-sample sum shows.
func TestLinearPerSampleGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	negZero := math.Copysign(0, -1)
	plant := func(m *tensor.Matrix) {
		fillRand(m, rng)
		for i := range m.Data {
			switch rng.Intn(5) {
			case 0:
				m.Data[i] = 0
			case 1:
				m.Data[i] = negZero
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		in, out := 1+rng.Intn(9), 1+rng.Intn(14)
		B, n := 1+rng.Intn(9), 1+rng.Intn(8)
		if trial%4 == 0 {
			n = 1
		}
		x := tensor.New(B*n, in)
		plant(x)
		dy := tensor.New(B*n, out)
		plant(dy)
		startW := tensor.New(in, out)
		plant(startW)
		startB := tensor.New(1, out)
		plant(startB)

		mk := func() *Linear {
			l := NewLinear("l", in, out, rand.New(rand.NewSource(int64(trial))))
			l.SampleRows = n
			copy(l.Weight.Grad.Data, startW.Data)
			copy(l.Bias.Grad.Data, startB.Data)
			return l
		}
		whole := mk()
		whole.Forward(x)
		dxWhole := cloneMat(whole.Backward(dy))

		blocks := mk()
		dxBlocks := tensor.New(B*n, in)
		for e := 0; e < B; e++ {
			xe := tensor.FromSlice(n, in, x.Data[e*n*in:(e+1)*n*in])
			de := tensor.FromSlice(n, out, dy.Data[e*n*out:(e+1)*n*out])
			blocks.Forward(xe)
			copy(dxBlocks.Data[e*n*in:], blocks.Backward(de).Data)
		}
		matBitsEqual(t, "Weight.Grad", blocks.Weight.Grad, whole.Weight.Grad)
		matBitsEqual(t, "Bias.Grad", blocks.Bias.Grad, whole.Bias.Grad)
		matBitsEqual(t, "input gradient", dxBlocks, dxWhole)
	}
}

func TestMLPLearnsRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mlp := NewMLP("mlp", []int{1, 16, 16, 1}, rng)
	opt := NewAdam(0.01)
	// Fit y = sin(x) on [-2, 2].
	n := 64
	x := tensor.New(n, 1)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		xv := -2 + 4*float64(i)/float64(n-1)
		x.Set(i, 0, xv)
		y.Set(i, 0, math.Sin(xv))
	}
	first := 0.0
	var last float64
	for epoch := 0; epoch < 300; epoch++ {
		pred := mlp.Forward(x)
		loss, g := mse(pred, y)
		if epoch == 0 {
			first = loss
		}
		last = loss
		mlp.Backward(g)
		opt.Step(mlp)
	}
	if last > first/10 {
		t.Errorf("MLP did not learn: first loss %g, last loss %g", first, last)
	}
}

func TestLSTMForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLSTM("lstm", 3, 5, rng)
	seq := []*tensor.Matrix{tensor.New(2, 3), tensor.New(2, 3)}
	hs := l.Forward(seq)
	if len(hs) != 2 || hs[0].Rows != 2 || hs[0].Cols != 5 {
		t.Fatalf("Forward shapes: %d steps, %dx%d", len(hs), hs[0].Rows, hs[0].Cols)
	}
	if l.Forward(nil) != nil {
		t.Error("Forward(nil) should return nil")
	}
}

func TestLSTMZeroInputNonZeroOutput(t *testing.T) {
	// With forget bias 1 and zero input the hidden state stays near zero but
	// gates are active; just sanity-check for NaN-free bounded outputs.
	rng := rand.New(rand.NewSource(5))
	l := NewLSTM("lstm", 2, 4, rng)
	seq := make([]*tensor.Matrix, 5)
	for i := range seq {
		m := tensor.New(1, 2)
		m.RandUniform(rng, 2)
		seq[i] = m
	}
	hs := l.Forward(seq)
	for _, h := range hs {
		for _, v := range h.Data {
			if math.IsNaN(v) || math.Abs(v) > 1 {
				t.Fatalf("hidden value %g out of (-1, 1)", v)
			}
		}
	}
}

func TestLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLSTM("lstm", 2, 3, rng)
	seq := make([]*tensor.Matrix, 3)
	for i := range seq {
		m := tensor.New(2, 2)
		m.RandUniform(rng, 1)
		seq[i] = m
	}
	target := tensor.New(2, 3)
	target.RandUniform(rng, 1)
	loss := func() float64 {
		hs := l.Forward(seq)
		lv, _ := mse(hs[len(hs)-1], target)
		return lv
	}
	ZeroGrads(l)
	hs := l.Forward(seq)
	_, g := mse(hs[len(hs)-1], target)
	dH := make([]*tensor.Matrix, len(hs))
	dH[len(hs)-1] = g
	l.Backward(dH)
	checkGrads(t, l, loss, 1e-4)
}

func TestLSTMInputGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLSTM("lstm", 2, 3, rng)
	seq := make([]*tensor.Matrix, 2)
	for i := range seq {
		m := tensor.New(1, 2)
		m.RandUniform(rng, 1)
		seq[i] = m
	}
	target := tensor.New(1, 3)
	loss := func() float64 {
		hs := l.Forward(seq)
		lv, _ := mse(hs[len(hs)-1], target)
		return lv
	}
	hs := l.Forward(seq)
	_, g := mse(hs[len(hs)-1], target)
	dH := make([]*tensor.Matrix, len(hs))
	dH[len(hs)-1] = g
	dxs := l.Backward(dH)
	const eps = 1e-6
	for tIdx, x := range seq {
		for i := range x.Data {
			orig := x.Data[i]
			x.Data[i] = orig + eps
			lp := loss()
			x.Data[i] = orig - eps
			lm := loss()
			x.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-dxs[tIdx].Data[i]) > 1e-4*(1+math.Abs(num)) {
				t.Errorf("dx[%d][%d]: analytic %g vs numeric %g", tIdx, i, dxs[tIdx].Data[i], num)
			}
		}
	}
}

func TestLSTMLearnsSequenceSum(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewLSTM("lstm", 1, 8, rng)
	head := NewLinear("head", 8, 1, rng)
	opt := NewAdam(0.02)
	type both struct{ Module }
	mod := struct{ Module }{moduleList{l, head}}
	_ = mod
	first, last := 0.0, 0.0
	for epoch := 0; epoch < 200; epoch++ {
		seq := make([]*tensor.Matrix, 4)
		sum := tensor.New(8, 1)
		for s := range seq {
			m := tensor.New(8, 1)
			for r := 0; r < 8; r++ {
				v := rng.Float64() - 0.5
				m.Set(r, 0, v)
				sum.Set(r, 0, sum.At(r, 0)+v)
			}
			seq[s] = m
		}
		hs := l.Forward(seq)
		pred := head.Forward(hs[len(hs)-1])
		loss, g := mse(pred, sum)
		if epoch == 0 {
			first = loss
		}
		last = loss
		dh := head.Backward(g)
		dH := make([]*tensor.Matrix, len(hs))
		dH[len(hs)-1] = dh
		l.Backward(dH)
		opt.Step(moduleList{l, head})
	}
	if last > first/4 {
		t.Errorf("LSTM did not learn sequence sum: first %g, last %g", first, last)
	}
}

// moduleList groups modules for a single optimizer step.
type moduleList []Module

func (ml moduleList) Params() []*Param {
	var ps []*Param
	for _, m := range ml {
		ps = append(ps, m.Params()...)
	}
	return ps
}

func TestGATForwardConvexCombination(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := NewGAT("gat", 4, 8, 4, rng)
	// With Phi3 = identity, the output must be a convex combination of the
	// neighborhood's feature rows.
	g.Phi3.W.Zero()
	for i := 0; i < 4; i++ {
		g.Phi3.W.Set(i, i, 1)
	}
	nodes := tensor.New(3, 4)
	nodes.RandUniform(rng, 1)
	out := g.Forward(nodes, []int{0}, [][]int{{0, 1, 2}})
	for j := 0; j < 4; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for n := 0; n < 3; n++ {
			v := nodes.At(n, j)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if out.At(0, j) < lo-1e-9 || out.At(0, j) > hi+1e-9 {
			t.Errorf("out[%d] = %g outside [%g, %g]", j, out.At(0, j), lo, hi)
		}
	}
}

func TestGATGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := NewGAT("gat", 3, 4, 2, rng)
	nodes := tensor.New(5, 3)
	nodes.RandUniform(rng, 1)
	targets := []int{0, 1}
	neighbors := [][]int{{0, 2, 3}, {1, 3, 4}}
	target := tensor.New(2, 2)
	target.RandUniform(rng, 1)
	loss := func() float64 {
		lv, _ := mse(g.Forward(nodes, targets, neighbors), target)
		return lv
	}
	ZeroGrads(g)
	_, grad := mse(g.Forward(nodes, targets, neighbors), target)
	dNodes := g.Backward(grad)
	checkGrads(t, g, loss, 1e-4)
	// Also verify input gradients numerically.
	const eps = 1e-6
	for i := range nodes.Data {
		orig := nodes.Data[i]
		nodes.Data[i] = orig + eps
		lp := loss()
		nodes.Data[i] = orig - eps
		lm := loss()
		nodes.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dNodes.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("dNodes[%d]: analytic %g vs numeric %g", i, dNodes.Data[i], num)
		}
	}
}

func TestAdamReducesQuadratic(t *testing.T) {
	p := NewParam("p", 1, 4)
	copy(p.W.Data, []float64{5, -3, 2, 8})
	mod := moduleList{paramModule{p}}
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		for j, v := range p.W.Data {
			p.Grad.Data[j] = v // gradient of ½‖p‖²
		}
		opt.Step(mod)
	}
	if n := tensor.Norm2(p.W); n > 0.1 {
		t.Errorf("Adam failed to minimize: ‖p‖ = %g", n)
	}
}

func TestSGDMomentumReducesQuadratic(t *testing.T) {
	p := NewParam("p", 1, 2)
	copy(p.W.Data, []float64{4, -4})
	mod := moduleList{paramModule{p}}
	opt := NewSGD(0.05, 0.9)
	for i := 0; i < 300; i++ {
		for j, v := range p.W.Data {
			p.Grad.Data[j] = v
		}
		opt.Step(mod)
	}
	if n := tensor.Norm2(p.W); n > 0.1 {
		t.Errorf("SGD failed to minimize: ‖p‖ = %g", n)
	}
}

type paramModule struct{ p *Param }

func (pm paramModule) Params() []*Param { return []*Param{pm.p} }

func TestCopyAndSoftUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewLinear("a", 2, 2, rng)
	b := NewLinear("b", 2, 2, rng)
	CopyParams(b, a)
	if !tensor.Equal(a.Weight.W, b.Weight.W, 0) {
		t.Fatal("CopyParams did not copy weights")
	}
	a.Weight.W.Fill(1)
	b.Weight.W.Fill(0)
	SoftUpdate(b, a, 0.25)
	for _, v := range b.Weight.W.Data {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("SoftUpdate value %g, want 0.25", v)
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("p", 1, 2)
	copy(p.Grad.Data, []float64{3, 4})
	norm := ClipGradNorm(moduleList{paramModule{p}}, 1)
	if math.Abs(norm-5) > 1e-9 {
		t.Errorf("pre-clip norm = %g, want 5", norm)
	}
	if got := math.Hypot(p.Grad.Data[0], p.Grad.Data[1]); math.Abs(got-1) > 1e-6 {
		t.Errorf("post-clip norm = %g, want 1", got)
	}
	// Disabled clipping leaves grads alone.
	copy(p.Grad.Data, []float64{3, 4})
	ClipGradNorm(moduleList{paramModule{p}}, 0)
	if p.Grad.Data[0] != 3 {
		t.Error("maxNorm<=0 should not clip")
	}
}

// mse is MSE with a freshly allocated gradient, for tests.
func mse(pred, target *tensor.Matrix) (float64, *tensor.Matrix) {
	grad := tensor.New(pred.Rows, pred.Cols)
	return MSE(pred, target, grad), grad
}

func TestMSE(t *testing.T) {
	pred := tensor.FromSlice(1, 2, []float64{1, 3})
	target := tensor.FromSlice(1, 2, []float64{0, 1})
	grad := tensor.New(1, 2)
	grad.Fill(math.NaN()) // MSE must overwrite every element
	loss := MSE(pred, target, grad)
	if want := (0.5*1 + 0.5*4) / 2; math.Abs(loss-want) > 1e-12 {
		t.Errorf("MSE loss = %g, want %g", loss, want)
	}
	if !tensor.Equal(grad, tensor.FromSlice(1, 2, []float64{0.5, 1}), 1e-12) {
		t.Errorf("MSE grad = %v", grad)
	}
}

func TestCountParams(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewLinear("l", 3, 4, rng)
	if got := CountParams(l); got != 3*4+4 {
		t.Errorf("CountParams = %d, want 16", got)
	}
}
