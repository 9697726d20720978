package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// kernelShape draws a product shape: rows 0–9, 42 or 336 (GAT φ1's node
// count at B = 1 and 8), k 0–70, and widths 1–40 plus the layer widths
// 48, 64 and 192.
func kernelShape(rng *rand.Rand) (rows, k, cols int) {
	switch rng.Intn(6) {
	case 0:
		rows = 42
	case 1:
		rows = 336
	default:
		rows = rng.Intn(10)
	}
	k = rng.Intn(71)
	if rng.Intn(5) == 0 {
		cols = []int{48, 64, 192}[rng.Intn(3)]
	} else {
		cols = 1 + rng.Intn(40)
	}
	// Keep the Go oracle's work per trial near a million products.
	if rows*k*cols > 1<<20 {
		k = rng.Intn(8)
	}
	return rows, k, cols
}

// specialMat is randMat with plantSpecials applied on some draws.
func specialMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := randMat(rng, rows, cols)
	if rng.Intn(3) == 0 {
		plantSpecials(rng, m)
	}
	return m
}

// signedZeros returns a rows×cols matrix of +0 and −0, the state of a
// freshly zeroed gradient after adds that cancelled.
func signedZeros(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if rng.Intn(2) == 0 {
			m.Data[i] = math.Copysign(0, -1)
		}
	}
	return m
}

// fenced places m's elements inside a larger NaN-filled buffer and returns
// a copy of m whose Data is that exact-length window (cap == len), plus
// the whole buffer. A kernel that read past either end of the window
// would pick up NaN where the reference has a number, and one that wrote
// past it would change the fence.
func fenced(m *Matrix) (*Matrix, []float64) {
	const pad = 34
	buf := make([]float64, pad+len(m.Data)+pad)
	for i := range buf {
		buf[i] = math.NaN()
	}
	n := len(m.Data)
	copy(buf[pad:], m.Data)
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: buf[pad : pad+n : pad+n]}, buf
}

// fenceIntact reports whether the NaN padding around a fenced window is
// untouched.
func fenceIntact(buf []float64, n int) bool {
	const pad = 34
	for i, v := range buf {
		if (i < pad || i >= pad+n) && !math.IsNaN(v) {
			return false
		}
	}
	return true
}

// TestKernelMatchesGoLoops is the contract test of the assembly kernel:
// gemm, which runs the SSE2 blocks on amd64 and gemmColumns for a final
// odd column, must match gemmColumns over every column bit for bit (NaN
// as NaN), in both the forward layout (a row-major) and the weight-
// gradient layout (a read down its columns), storing and accumulating.
// Operands carry planted ±0, ±Inf, NaN and subnormals; accumulated
// destinations start from gradients of ±0; every operand is an
// exact-length window inside NaN padding.
func TestKernelMatchesGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 400; trial++ {
		rows, k, cols := kernelShape(rng)
		accumulate := trial%2 == 1
		transA := trial%4 >= 2
		a := specialMat(rng, rows, k)
		lda, ldak := k, 1
		if transA {
			a = specialMat(rng, k, rows)
			lda, ldak = 1, rows
		}
		b := specialMat(rng, k, cols)
		init := specialMat(rng, rows, cols)
		if accumulate && trial%8 == 1 {
			init = signedZeros(rng, rows, cols)
		}

		want := init.Clone()
		gemmColumns(want.Data, a.Data, b.Data, rows, 0, cols, k, lda, ldak, cols, cols, accumulate)

		fa, abuf := fenced(a)
		fb, bbuf := fenced(b)
		got, dbuf := fenced(init)
		gemm(got.Data, fa.Data, fb.Data, rows, cols, k, lda, ldak, cols, cols, accumulate)
		if !sameFloats(want, got) {
			t.Fatalf("trial %d: gemm differs from gemmColumns for %dx%d·%dx%d (transA %v, accumulate %v)",
				trial, rows, k, k, cols, transA, accumulate)
		}
		if !fenceIntact(abuf, len(a.Data)) || !fenceIntact(bbuf, len(b.Data)) || !fenceIntact(dbuf, len(init.Data)) {
			t.Fatalf("trial %d: gemm wrote outside its operands for %dx%d·%dx%d", trial, rows, k, k, cols)
		}
	}
}

// TestKernelMatchesReferences gates the exported block family against the
// plain loops in into.go and tensor.go, bit for bit with NaN as NaN:
// MatMulBlockInto against MatMulInto, MatMulAddBiasBlockInto against
// MatMulAddBiasInto, the LSTM's dual product against two MatMulIntos, an
// AddInPlace and a bias add, and the weight gradient against
// MatMul(Transpose(a), b) added into a gradient holding ±0 or values.
func TestKernelMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 200; trial++ {
		rows, k, cols := kernelShape(rng)
		a := specialMat(rng, rows, k)
		b := specialMat(rng, k, cols)
		k2 := rng.Intn(50)
		a2 := specialMat(rng, rows, k2)
		b2 := specialMat(rng, k2, cols)
		bias := specialMat(rng, 1, cols)

		want := New(rows, cols)
		MatMulInto(want, a, b)
		got := garbage(rows, cols)
		MatMulBlockInto(got, a, b)
		if !sameFloats(want, got) {
			t.Fatalf("trial %d: MatMulBlockInto differs from MatMulInto for %dx%d·%dx%d", trial, rows, k, k, cols)
		}

		MatMulAddBiasInto(want, a, b, bias)
		got = garbage(rows, cols)
		MatMulAddBiasBlockInto(got, a, b, bias)
		if !sameFloats(want, got) {
			t.Fatalf("trial %d: MatMulAddBiasBlockInto differs from MatMulAddBiasInto for %dx%d·%dx%d", trial, rows, k, k, cols)
		}

		zh := New(rows, cols)
		MatMulInto(zh, a2, b2)
		MatMulInto(want, a, b)
		AddInPlace(want, zh)
		for i := 0; i < rows; i++ {
			row := want.Row(i)
			for j, bv := range bias.Data {
				row[j] += bv
			}
		}
		got = garbage(rows, cols)
		MatMulDualAddBiasBlockInto(got, a, b, a2, b2, bias)
		if !sameFloats(want, got) {
			t.Fatalf("trial %d: MatMulDualAddBiasBlockInto differs from its reference for %dx%d·%dx%d + %dx%d·%dx%d",
				trial, rows, k, k, cols, rows, k2, k2, cols)
		}

		x := specialMat(rng, k, rows)
		grad := specialMat(rng, rows, cols)
		if trial%2 == 0 {
			grad = signedZeros(rng, rows, cols)
		}
		want = grad.Clone()
		AddInPlace(want, MatMul(Transpose(x), b))
		got = grad.Clone()
		AddMatMulTransABlockInto(got, x, b)
		if !sameFloats(want, got) {
			t.Fatalf("trial %d: AddMatMulTransABlockInto differs from MatMul(Transpose(x), b) + AddInPlace for %dx%d ᵀ· %dx%d",
				trial, k, rows, k, cols)
		}
	}
}

// TestKernelRowViews runs the weight gradient over per-sample row views
// at nonzero offsets, as Linear.SampleRows does: the sum of the views'
// gradients, each added once in sample order, must match adding each
// sample's MatMul(Transpose(x), dy) in the same order.
func TestKernelRowViews(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(7)
		samples := 1 + rng.Intn(8)
		in := 1 + rng.Intn(50)
		out := []int{1, 3, 12, 48, 1 + rng.Intn(40)}[rng.Intn(5)]
		x := specialMat(rng, n*samples, in)
		dy := specialMat(rng, n*samples, out)
		grad := signedZeros(rng, in, out)
		want := grad.Clone()
		got := grad.Clone()
		var xv, dv Matrix
		for lo := 0; lo < n*samples; lo += n {
			xs := FromSlice(n, in, x.Data[lo*in:(lo+n)*in])
			ds := FromSlice(n, out, dy.Data[lo*out:(lo+n)*out])
			AddInPlace(want, MatMul(Transpose(xs), ds))
			xv.Rows, xv.Cols, xv.Data = n, in, x.Data[lo*in:(lo+n)*in]
			dv.Rows, dv.Cols, dv.Data = n, out, dy.Data[lo*out:(lo+n)*out]
			AddMatMulTransABlockInto(got, &xv, &dv)
		}
		if !sameFloats(want, got) {
			t.Fatalf("trial %d: per-sample view gradients differ for %d samples of %d rows, %d→%d", trial, samples, n, in, out)
		}
	}
}

// TestKernelShortData pins the check that keeps the assembly in bounds:
// an operand whose Data holds fewer than Rows·Cols elements panics before
// any element is read.
func TestKernelShortData(t *testing.T) {
	short := &Matrix{Rows: 3, Cols: 4, Data: make([]float64, 11, 12)}
	for name, fn := range map[string]func(){
		"a":    func() { MatMulBlockInto(New(3, 2), short, New(4, 2)) },
		"b":    func() { MatMulBlockInto(New(2, 4), New(2, 3), short) },
		"dst":  func() { MatMulBlockInto(short, New(3, 5), New(5, 4)) },
		"grad": func() { AddMatMulTransABlockInto(short, New(2, 3), New(2, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("short %s operand did not panic", name)
				}
			}()
			fn()
		}()
	}
}
