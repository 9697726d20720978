package nn

import (
	"math"
	"math/rand"
	"testing"

	"head/internal/tensor"
)

func fillRand(m *tensor.Matrix, rng *rand.Rand) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(5)-2))
	}
}

func matBitsEqual(t *testing.T, what string, a, b *tensor.Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", what, i, v, b.Data[i])
		}
	}
}

func cloneMat(m *tensor.Matrix) *tensor.Matrix {
	c := tensor.New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// rowOf returns row e of m as a one-row matrix sharing m's storage.
func rowOf(m *tensor.Matrix, e int) *tensor.Matrix {
	return tensor.FromSlice(1, m.Cols, m.Row(e))
}

// TestForwardRowBitIdentity checks the batch-of-one contract for Linear
// and Sequential: for a random B in 1..9, row e of one B-row forward is
// bit-identical to a one-row forward of row e.
func TestForwardRowBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		in := 2 + rng.Intn(10)
		out := 1 + rng.Intn(12)
		B := 1 + rng.Intn(9)
		x := tensor.New(B, in)
		fillRand(x, rng)
		lin := NewLinear("lin", in, out, rng)
		seqNet := NewMLP("mlp", []int{in, 2 + rng.Intn(8), out}, rng)
		for name, net := range map[string]Layer{"Linear": lin, "Sequential": seqNet} {
			batched := cloneMat(net.Forward(x))
			for e := 0; e < B; e++ {
				matBitsEqual(t, name+" row", rowOf(batched, e), net.Forward(rowOf(x, e)))
			}
		}
	}
}

// TestLSTMForwardRowBitIdentity checks the batch-of-one contract for the
// LSTM: row e of every hidden state of a B-row pass is bit-identical to
// the one-row pass over row e's sequence.
func TestLSTMForwardRowBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		in := 2 + rng.Intn(8)
		hidden := 1 + rng.Intn(9)
		steps := 1 + rng.Intn(6)
		B := 1 + rng.Intn(9)
		l := NewLSTM("lstm", in, hidden, rng)
		seq := make([]*tensor.Matrix, steps)
		for tt := range seq {
			seq[tt] = tensor.New(B, in)
			fillRand(seq[tt], rng)
		}
		var batched []*tensor.Matrix
		for _, h := range l.Forward(seq) {
			batched = append(batched, cloneMat(h))
		}
		one := make([]*tensor.Matrix, steps)
		for e := 0; e < B; e++ {
			for tt, x := range seq {
				one[tt] = rowOf(x, e)
			}
			for tt, h := range l.Forward(one) {
				matBitsEqual(t, "LSTM row", rowOf(batched[tt], e), h)
			}
		}
	}
}

// TestLSTMMultiRowGradCheck checks Backward through a multi-row Forward
// against numeric gradients, with the loss reading every step's hidden
// state: every forward fills the backward caches.
func TestLSTMMultiRowGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	l := NewLSTM("lstm", 3, 4, rng)
	seq := make([]*tensor.Matrix, 3)
	targets := make([]*tensor.Matrix, len(seq))
	for i := range seq {
		seq[i] = tensor.New(5, 3)
		seq[i].RandUniform(rng, 1)
		targets[i] = tensor.New(5, 4)
		targets[i].RandUniform(rng, 1)
	}
	loss := func() float64 {
		total := 0.0
		for tt, h := range l.Forward(seq) {
			lv, _ := mse(h, targets[tt])
			total += lv
		}
		return total
	}
	ZeroGrads(l)
	dH := make([]*tensor.Matrix, len(seq))
	for tt, h := range l.Forward(seq) {
		_, g := mse(h, targets[tt])
		dH[tt] = g
	}
	l.Backward(dH)
	checkGrads(t, l, loss, 1e-4)
}

// TestGATForwardRowBitIdentity checks the graph-concatenation form of
// batching: B graphs become one node matrix with per-graph node offsets,
// and each graph's target rows match a Forward over that graph alone.
func TestGATForwardRowBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		in := 2 + rng.Intn(6)
		attn := 1 + rng.Intn(8)
		out := 1 + rng.Intn(8)
		nodesPer := 4 + rng.Intn(8)
		nTargets := 1 + rng.Intn(3)
		B := 1 + rng.Intn(9)
		g := NewGAT("gat", in, attn, out, rng)
		g.Residual = rng.Intn(2) == 0
		g.Uniform = rng.Intn(4) == 0

		type graph struct {
			nodes     *tensor.Matrix
			targets   []int
			neighbors [][]int
		}
		graphs := make([]graph, B)
		bigNodes := tensor.New(B*nodesPer, in)
		var bigTargets []int
		var bigNeighbors [][]int
		for e := range graphs {
			nodes := tensor.New(nodesPer, in)
			fillRand(nodes, rng)
			copy(bigNodes.Data[e*nodesPer*in:], nodes.Data)
			targets := make([]int, nTargets)
			neighbors := make([][]int, nTargets)
			for i := range targets {
				targets[i] = rng.Intn(nodesPer)
				nbrs := []int{targets[i]}
				for n := rng.Intn(4); n > 0; n-- {
					nbrs = append(nbrs, rng.Intn(nodesPer))
				}
				neighbors[i] = nbrs
				bigTargets = append(bigTargets, targets[i]+e*nodesPer)
				off := make([]int, len(nbrs))
				for k, j := range nbrs {
					off[k] = j + e*nodesPer
				}
				bigNeighbors = append(bigNeighbors, off)
			}
			graphs[e] = graph{nodes, targets, neighbors}
		}

		batched := cloneMat(g.Forward(bigNodes, bigTargets, bigNeighbors))
		for e, gr := range graphs {
			one := g.Forward(gr.nodes, gr.targets, gr.neighbors)
			for i := 0; i < nTargets; i++ {
				matBitsEqual(t, "GAT target row", rowOf(batched, e*nTargets+i), rowOf(one, i))
			}
		}
	}
}
