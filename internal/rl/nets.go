package rl

import (
	"fmt"
	"math/rand"

	"head/internal/nn"
	"head/internal/tensor"
)

// XNet is the deterministic action-parameter network x(s, ·; θx): it maps
// augmented states to one continuous acceleration per discrete behavior,
// each bounded to [−a′, a′] by a scaled Tanh (Equation (25)).
type XNet interface {
	nn.Module
	// Forward returns the B×NumBehaviors acceleration matrix x_out for B
	// states; a single state is a batch of one. Rows are independent: row
	// e is bit-identical to the one-state forward of states[e].
	Forward(states [][]float64) *tensor.Matrix
	// Backward accumulates parameter gradients from the loss gradient
	// with respect to the last Forward's x_out. Each state's gradients
	// are added as their own sums, in row order, so a B-row Backward is
	// bit-identical to B one-state Backwards.
	Backward(d *tensor.Matrix)
}

// QNet is the action-value network Q(s, ·, x_out; θQ): it maps augmented
// states and their action-parameter vectors to one Q value per discrete
// behavior (Equation (27)).
type QNet interface {
	nn.Module
	// Forward returns the B×NumBehaviors Q-value matrix for B states and
	// their B×NumBehaviors action-parameter rows. Rows are independent,
	// as for XNet.
	Forward(states [][]float64, xout *tensor.Matrix) *tensor.Matrix
	// Backward accumulates parameter gradients, per state as for XNet,
	// and returns the gradient with respect to x_out.
	Backward(d *tensor.Matrix) *tensor.Matrix
	// ActionGrad returns the gradient with respect to the last Forward's
	// x_out, the one the actor loss L3 needs, and writes no parameter
	// gradient. Backward returns the same bits.
	ActionGrad(d *tensor.Matrix) *tensor.Matrix
}

// The returned matrices of both networks live in the network's workspace
// arena and are valid until the same network's next Forward.

// viewInto repoints a caller-owned matrix header at a flat slice, the
// zero-allocation counterpart of tensor.FromSlice for the hot path. The
// view shares data with the slice and is valid while the slice is.
func viewInto(m *tensor.Matrix, rows, cols int, data []float64) *tensor.Matrix {
	m.Rows, m.Cols, m.Data = rows, cols, data[:rows*cols]
	return m
}

// gatherSplit stacks B augmented states into the h and f block matrices of
// the branched processing: state e's NumH current-state rows land at rows
// [e·NumH, (e+1)·NumH) of hAll and its NumF future-state rows at the
// matching block of fAll.
func gatherSplit(spec StateSpec, states [][]float64, hAll, fAll *tensor.Matrix) {
	hl, dim := spec.HLen(), spec.Dim()
	fl := dim - hl
	for e, s := range states {
		if len(s) != dim {
			panic(fmt.Sprintf("rl: state %d has %d scalars, want %d", e, len(s), dim))
		}
		copy(hAll.Data[e*hl:(e+1)*hl], s[:hl])
		copy(fAll.Data[e*fl:(e+1)*fl], s[hl:])
	}
}

// sampleLinear is nn.NewLinear for a layer that sees rows consecutive
// input rows per state, so that one Backward over a chunk of states adds
// each state's weight gradient as its own sum (nn.Linear.SampleRows).
func sampleLinear(name string, in, out, rows int, rng *rand.Rand) *nn.Linear {
	l := nn.NewLinear(name, in, out, rng)
	l.SampleRows = rows
	return l
}

// branch is the per-vehicle two-layer ReLU column reducer of Figure 6: it
// maps each state's N×FeatDim block to a 1×N vector by applying a shared
// FeatDim→D→1 MLP to every row. Its input is state data, which needs no
// gradient, so its first layer forms none.
type branch struct {
	seq         *nn.Sequential
	view, dview tensor.Matrix // reshape headers
}

func newBranch(name string, in, hidden, n int, rng *rand.Rand) *branch {
	l1 := sampleLinear(name+".l1", in, hidden, n, rng)
	l1.NoInputGrad = true
	return &branch{seq: nn.NewSequential(
		l1,
		&nn.ReLU{},
		sampleLinear(name+".l2", hidden, 1, n, rng),
		&nn.ReLU{},
	)}
}

func (b *branch) Params() []*nn.Param { return b.seq.Params() }

// concatParams flattens parameter groups into one exact-capacity slice, so
// Params() can return a construction-time cache that per-step parameter
// walks read without allocating (and that caller appends always copy).
func concatParams(groups ...[]*nn.Param) []*nn.Param {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	ps := make([]*nn.Param, 0, n)
	for _, g := range groups {
		ps = append(ps, g...)
	}
	return ps
}

// forward runs the branch MLP over batch stacked blocks of n rows each and
// returns a batch×n view of the result: the (batch·n)×1 output column is
// exactly the row-major layout of one 1×n vector per state, so no
// transpose is needed.
func (b *branch) forward(stacked *tensor.Matrix, batch, n int) *tensor.Matrix {
	y := b.seq.Forward(stacked)
	return viewInto(&b.view, batch, n, y.Data)
}

// backward reshapes the batch×n gradient of forward's view back into the
// (batch·n)×1 column the MLP produced and accumulates the parameter
// gradients. d must be a contiguous matrix; the in-place ReLU overwrites
// it.
func (b *branch) backward(d *tensor.Matrix) {
	b.seq.Backward(viewInto(&b.dview, d.Rows*d.Cols, 1, d.Data))
}

// BranchedX is BP-DQN's x network (Figure 6, left): separate computational
// branches for hᵗ and f̂ᵗ⁺¹ merged by a Tanh-bounded linear head.
type BranchedX struct {
	spec    StateSpec
	aMax    float64
	hBranch *branch
	fBranch *branch
	merge   *nn.Linear
	tanh    *nn.Tanh
	ws      tensor.Workspace
	params  []*nn.Param
}

// NewBranchedX builds the branched x network with hidden width d.
func NewBranchedX(spec StateSpec, d int, aMax float64, rng *rand.Rand) *BranchedX {
	x := &BranchedX{
		spec:    spec,
		aMax:    aMax,
		hBranch: newBranch("bpx.h", spec.FeatDim, d, spec.NumH, rng),
		fBranch: newBranch("bpx.f", spec.FeatDim, d, spec.NumF, rng),
		merge:   sampleLinear("bpx.merge", spec.NumH+spec.NumF, NumBehaviors, 1, rng),
		tanh:    &nn.Tanh{},
	}
	x.params = concatParams(x.hBranch.Params(), x.fBranch.Params(), x.merge.Params())
	return x
}

// Params implements nn.Module. Prebuilt at construction (h branch, f
// branch, merge — the serialization order) so parameter walks allocate
// nothing.
func (x *BranchedX) Params() []*nn.Param { return x.params }

// Forward implements XNet.
func (x *BranchedX) Forward(states [][]float64) *tensor.Matrix {
	B := len(states)
	nh, nf := x.spec.NumH, x.spec.NumF
	x.ws.Reset()
	hAll := x.ws.Get(B*nh, x.spec.FeatDim)
	fAll := x.ws.Get(B*nf, x.spec.FeatDim)
	gatherSplit(x.spec, states, hAll, fAll)
	hv := x.hBranch.forward(hAll, B, nh)
	fv := x.fBranch.forward(fAll, B, nf)
	cat := x.ws.Get(B, nh+nf)
	for e := 0; e < B; e++ {
		row := cat.Row(e)
		copy(row[:nh], hv.Row(e))
		copy(row[nh:], fv.Row(e))
	}
	y := x.tanh.Forward(x.merge.Forward(cat))
	out := x.ws.Get(B, NumBehaviors)
	tensor.ScaleInto(out, y, x.aMax)
	return out
}

// Backward implements XNet.
func (x *BranchedX) Backward(d *tensor.Matrix) {
	sd := x.ws.Get(d.Rows, d.Cols)
	tensor.ScaleInto(sd, d, x.aMax)
	dy := x.tanh.Backward(sd)
	dcat := x.merge.Backward(dy)
	dh := x.ws.Get(d.Rows, x.spec.NumH)
	tensor.SliceColsInto(dh, dcat, 0)
	df := x.ws.Get(d.Rows, x.spec.NumF)
	tensor.SliceColsInto(df, dcat, x.spec.NumH)
	x.hBranch.backward(dh)
	x.fBranch.backward(df)
}

// BranchedQ is BP-DQN's Q network (Figure 6, right): three branches for
// hᵗ, f̂ᵗ⁺¹ and x_out merged by a linear head into three Q values.
type BranchedQ struct {
	spec    StateSpec
	hBranch *branch
	fBranch *branch
	xBranch *nn.Sequential
	merge   *nn.Linear
	ws      tensor.Workspace
	params  []*nn.Param
}

// NewBranchedQ builds the branched Q network with hidden width d.
func NewBranchedQ(spec StateSpec, d int, rng *rand.Rand) *BranchedQ {
	q := &BranchedQ{
		spec:    spec,
		hBranch: newBranch("bpq.h", spec.FeatDim, d, spec.NumH, rng),
		fBranch: newBranch("bpq.f", spec.FeatDim, d, spec.NumF, rng),
		xBranch: nn.NewSequential(
			sampleLinear("bpq.x1", NumBehaviors, d, 1, rng),
			&nn.ReLU{},
			sampleLinear("bpq.x2", d, NumBehaviors, 1, rng),
			&nn.ReLU{},
		),
		merge: sampleLinear("bpq.merge", spec.NumH+spec.NumF+NumBehaviors, NumBehaviors, 1, rng),
	}
	q.params = concatParams(q.hBranch.Params(), q.fBranch.Params(), q.xBranch.Params(), q.merge.Params())
	return q
}

// Params implements nn.Module. Prebuilt at construction (h branch, f
// branch, x branch, merge — the serialization order) so parameter walks
// allocate nothing.
func (q *BranchedQ) Params() []*nn.Param { return q.params }

// Forward implements QNet.
func (q *BranchedQ) Forward(states [][]float64, xout *tensor.Matrix) *tensor.Matrix {
	B := len(states)
	nh, nf := q.spec.NumH, q.spec.NumF
	q.ws.Reset()
	hAll := q.ws.Get(B*nh, q.spec.FeatDim)
	fAll := q.ws.Get(B*nf, q.spec.FeatDim)
	gatherSplit(q.spec, states, hAll, fAll)
	hv := q.hBranch.forward(hAll, B, nh)
	fv := q.fBranch.forward(fAll, B, nf)
	xv := q.xBranch.Forward(xout)
	cat := q.ws.Get(B, nh+nf+NumBehaviors)
	for e := 0; e < B; e++ {
		row := cat.Row(e)
		copy(row[:nh], hv.Row(e))
		copy(row[nh:nh+nf], fv.Row(e))
		copy(row[nh+nf:], xv.Row(e))
	}
	return q.merge.Forward(cat)
}

// Backward implements QNet.
func (q *BranchedQ) Backward(d *tensor.Matrix) *tensor.Matrix {
	dcat := q.merge.Backward(d)
	dh := q.ws.Get(d.Rows, q.spec.NumH)
	tensor.SliceColsInto(dh, dcat, 0)
	df := q.ws.Get(d.Rows, q.spec.NumF)
	tensor.SliceColsInto(df, dcat, q.spec.NumH)
	q.hBranch.backward(dh)
	q.fBranch.backward(df)
	return q.xBranch.Backward(q.dxBranch(d.Rows, dcat))
}

// ActionGrad implements QNet: the merge's input gradient, then the x
// branch's.
func (q *BranchedQ) ActionGrad(d *tensor.Matrix) *tensor.Matrix {
	return q.xBranch.InputGrad(q.dxBranch(d.Rows, q.merge.InputGrad(d)))
}

// dxBranch slices the x branch's columns out of the merge's input
// gradient.
func (q *BranchedQ) dxBranch(rows int, dcat *tensor.Matrix) *tensor.Matrix {
	dx := q.ws.Get(rows, NumBehaviors)
	tensor.SliceColsInto(dx, dcat, q.spec.NumH+q.spec.NumF)
	return dx
}

// SharedX is vanilla P-DQN's x network: one MLP over the flattened state,
// sharing weights across the differently scaled input groups (the design
// BP-DQN's branches fix).
type SharedX struct {
	spec StateSpec
	aMax float64
	mlp  *nn.Sequential
	tanh *nn.Tanh
	ws   tensor.Workspace
}

// NewSharedX builds the single-branch x network with hidden width h. Its
// input is state data, so its first layer forms no input gradient.
func NewSharedX(spec StateSpec, h int, aMax float64, rng *rand.Rand) *SharedX {
	l1 := sampleLinear("px.l1", spec.Dim(), h, 1, rng)
	l1.NoInputGrad = true
	return &SharedX{
		spec: spec,
		aMax: aMax,
		mlp: nn.NewSequential(
			l1,
			&nn.ReLU{},
			sampleLinear("px.l2", h, h, 1, rng),
			&nn.ReLU{},
			sampleLinear("px.l3", h, NumBehaviors, 1, rng),
		),
		tanh: &nn.Tanh{},
	}
}

// Params implements nn.Module.
func (x *SharedX) Params() []*nn.Param { return x.mlp.Params() }

// Forward implements XNet.
func (x *SharedX) Forward(states [][]float64) *tensor.Matrix {
	B := len(states)
	x.ws.Reset()
	in := x.ws.Get(B, x.spec.Dim())
	for e, s := range states {
		if len(s) != x.spec.Dim() {
			panic(fmt.Sprintf("rl: state %d has %d scalars, want %d", e, len(s), x.spec.Dim()))
		}
		copy(in.Row(e), s)
	}
	y := x.tanh.Forward(x.mlp.Forward(in))
	out := x.ws.Get(B, NumBehaviors)
	tensor.ScaleInto(out, y, x.aMax)
	return out
}

// Backward implements XNet.
func (x *SharedX) Backward(d *tensor.Matrix) {
	sd := x.ws.Get(d.Rows, d.Cols)
	tensor.ScaleInto(sd, d, x.aMax)
	x.mlp.Backward(x.tanh.Backward(sd))
}

// SharedQ is vanilla P-DQN's Q network: one MLP over the concatenated
// state and action parameters.
type SharedQ struct {
	spec StateSpec
	mlp  *nn.Sequential
	ws   tensor.Workspace
}

// NewSharedQ builds the single-branch Q network with hidden width h.
func NewSharedQ(spec StateSpec, h int, rng *rand.Rand) *SharedQ {
	return &SharedQ{
		spec: spec,
		mlp: nn.NewSequential(
			sampleLinear("pq.l1", spec.Dim()+NumBehaviors, h, 1, rng),
			&nn.ReLU{},
			sampleLinear("pq.l2", h, h, 1, rng),
			&nn.ReLU{},
			sampleLinear("pq.l3", h, NumBehaviors, 1, rng),
		),
	}
}

// Params implements nn.Module.
func (q *SharedQ) Params() []*nn.Param { return q.mlp.Params() }

// Forward implements QNet.
func (q *SharedQ) Forward(states [][]float64, xout *tensor.Matrix) *tensor.Matrix {
	B := len(states)
	q.ws.Reset()
	in := q.ws.Get(B, q.spec.Dim()+NumBehaviors)
	for e, s := range states {
		row := in.Row(e)
		copy(row[:len(s)], s)
		copy(row[len(s):], xout.Row(e))
	}
	return q.mlp.Forward(in)
}

// Backward implements QNet.
func (q *SharedQ) Backward(d *tensor.Matrix) *tensor.Matrix {
	return q.dxCols(q.mlp.Backward(d))
}

// ActionGrad implements QNet: the MLP's input gradient.
func (q *SharedQ) ActionGrad(d *tensor.Matrix) *tensor.Matrix {
	return q.dxCols(q.mlp.InputGrad(d))
}

// dxCols slices the x_out columns out of the MLP's input gradient.
func (q *SharedQ) dxCols(din *tensor.Matrix) *tensor.Matrix {
	dx := q.ws.Get(din.Rows, NumBehaviors)
	tensor.SliceColsInto(dx, din, din.Cols-NumBehaviors)
	return dx
}
