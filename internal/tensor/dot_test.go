package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// garbage returns a rows×cols matrix filled with NaN, so a kernel that
// assumes a zeroed destination shows up as a mismatch.
func garbage(rows, cols int) *Matrix {
	g := New(rows, cols)
	for i := range g.Data {
		g.Data[i] = math.NaN()
	}
	return g
}

// TestDotBitIdentity is the contract test for the products every layer
// forward and backward runs: each kernel must match its MatMulInto
// reference bit-for-bit across random shapes (crossing the 16-, 8-, 4- and
// 2-wide column blocks of the block kernel, the 6- and 4-wide blocks of
// MatMulDotInto, and the four-row blocks of both kernels' narrow columns),
// with dst pre-filled with garbage, and row e of a B-row product must
// equal the one-row product of row e. Every tenth trial has K = 192, the
// 4H inner width of the Record-shape LSTM's dz·Wxᵀ and dz·Whᵀ backward
// products.
func TestDotBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		r := 1 + rng.Intn(9)
		k := 1 + rng.Intn(13)
		if trial%10 == 0 {
			k = 192
		}
		k2 := 1 + rng.Intn(13)
		c := 1 + rng.Intn(40)
		a := randMat(rng, r, k)
		b := randMat(rng, k, c)
		a2 := randMat(rng, r, k2)
		b2 := randMat(rng, k2, c)
		bias := randMat(rng, 1, c)
		bT := Transpose(b)

		want := New(r, c)
		MatMulInto(want, a, b)
		wantBias := New(r, c)
		MatMulAddBiasInto(wantBias, a, b, bias)
		// Reference order for the fused kernel: two independent full sums,
		// added once, bias last — the LSTM pre-activation sequence.
		zh := New(r, c)
		MatMulInto(zh, a2, b2)
		wantDual := New(r, c)
		MatMulInto(wantDual, a, b)
		AddInPlace(wantDual, zh)
		for i := 0; i < r; i++ {
			row := wantDual.Row(i)
			for j, bv := range bias.Data {
				row[j] += bv
			}
		}

		kernels := []struct {
			name string
			want *Matrix
			run  func(dst, a, a2 *Matrix)
		}{
			{"MatMulDotInto", want, func(dst, a, _ *Matrix) { MatMulDotInto(dst, a, bT) }},
			{"MatMulBlockInto", want, func(dst, a, _ *Matrix) { MatMulBlockInto(dst, a, b) }},
			{"MatMulAddBiasBlockInto", wantBias, func(dst, a, _ *Matrix) { MatMulAddBiasBlockInto(dst, a, b, bias) }},
			{"MatMulDualAddBiasBlockInto", wantDual, func(dst, a, a2 *Matrix) { MatMulDualAddBiasBlockInto(dst, a, b, a2, b2, bias) }},
		}
		for _, kn := range kernels {
			got := garbage(r, c)
			kn.run(got, a, a2)
			if !bitsEqual(kn.want, got) {
				t.Fatalf("trial %d: %s differs from its MatMulInto reference for %dx%d·%dx%d", trial, kn.name, r, k, k, c)
			}
			for e := 0; e < r; e++ {
				one := garbage(1, c)
				kn.run(one, FromSlice(1, k, a.Row(e)), FromSlice(1, k2, a2.Row(e)))
				if !bitsEqual(FromSlice(1, c, got.Row(e)), one) {
					t.Fatalf("trial %d: %s row %d of a %d-row product differs from the one-row product", trial, kn.name, e, r)
				}
			}
		}
	}
}

// plantSpecials overwrites about one element in six of m with ±0, NaN,
// ±Inf or a subnormal, so products of the form 0·NaN, 0·Inf and Inf−Inf
// occur, and so do products and sums that underflow.
func plantSpecials(rng *rand.Rand, m *Matrix) *Matrix {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.Float64frombits(0x000f_ffff_ffff_ffff)}
	for i := range m.Data {
		if rng.Intn(6) == 0 {
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return m
}

// sameFloats reports whether a and b match bit for bit, except that any
// NaN matches any NaN. Which operand's payload a NaN sum carries depends on
// the operand order the compiler picks for each add, which differs between
// loops (MatMulDotInto and MatMulInto already disagree there), so payloads
// are outside the kernel contract; whether an element is NaN is inside it.
func sameFloats(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		w := b.Data[i]
		if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
			return false
		}
	}
	return true
}

// TestAddMatMulTransABitIdentity is the contract test of the
// weight-gradient product: grad += aᵀ·b must match materializing
// MatMul(Transpose(a), b) and AddInPlace-ing it into the same non-zero
// gradient, bit for bit, across random shapes that cross the kernel's
// column blocks (the layer shapes K = 1, 6, 7 and 42 included) and
// operands with planted specials (NaN payloads excepted, see sameFloats).
func TestAddMatMulTransABitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ks := []int{1, 6, 7, 42}
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(13)
		if trial%2 == 0 {
			k = ks[rng.Intn(len(ks))]
		}
		r := 1 + rng.Intn(9)
		c := 1 + rng.Intn(40)
		if trial%10 == 0 {
			c = 1
		}
		a := randMat(rng, k, r)
		b := randMat(rng, k, c)
		grad := randMat(rng, r, c)
		if trial%3 == 0 {
			plantSpecials(rng, a)
			plantSpecials(rng, b)
			plantSpecials(rng, grad)
		}
		want := grad.Clone()
		AddInPlace(want, MatMul(Transpose(a), b))
		got := grad.Clone()
		AddMatMulTransABlockInto(got, a, b)
		if !sameFloats(want, got) {
			t.Fatalf("trial %d: AddMatMulTransABlockInto differs from MatMul(Transpose(a), b) + AddInPlace for %dx%d ᵀ· %dx%d:\n got  %v\n want %v",
				trial, k, r, k, c, got, want)
		}
	}
}

// TestDotNaNPropagation mirrors TestMatMulNaNPropagation: the kernels
// must form every product, so a NaN operand against an explicit zero
// still poisons the destination exactly like MatMulInto.
func TestDotNaNPropagation(t *testing.T) {
	a := FromSlice(1, 2, []float64{0, 1})
	bT := FromSlice(1, 2, []float64{math.NaN(), 2})
	b := FromSlice(2, 1, bT.Data)
	bias := New(1, 1)
	for name, run := range map[string]func(dst *Matrix){
		"MatMulDotInto":              func(dst *Matrix) { MatMulDotInto(dst, a, bT) },
		"MatMulBlockInto":            func(dst *Matrix) { MatMulBlockInto(dst, a, b) },
		"MatMulAddBiasBlockInto":     func(dst *Matrix) { MatMulAddBiasBlockInto(dst, a, b, bias) },
		"MatMulDualAddBiasBlockInto": func(dst *Matrix) { MatMulDualAddBiasBlockInto(dst, a, b, a, b, bias) },
		// aᵀ·b with a = [0 1]ᵀ and b = [NaN 2]ᵀ: the same 0·NaN product.
		"AddMatMulTransABlockInto": func(dst *Matrix) { AddMatMulTransABlockInto(dst, FromSlice(2, 1, a.Data), b) },
	} {
		got := New(1, 1)
		run(got)
		if !math.IsNaN(got.At(0, 0)) {
			t.Errorf("%s skipped the 0·NaN product: got %v", name, got.At(0, 0))
		}
	}
	// Every row of a four-row block forms the product too: in the Go
	// column walk (one column) and in the SSE2 2- and 4-wide blocks.
	a4 := FromSlice(4, 2, []float64{0, 1, 0, 1, 0, 1, 0, 1})
	for _, c := range []int{1, 2, 4} {
		bc := New(2, c)
		for j := 0; j < c; j++ {
			bc.Set(0, j, math.NaN())
			bc.Set(1, j, 2)
		}
		got := New(4, c)
		MatMulAddBiasBlockInto(got, a4, bc, New(1, c))
		for i, v := range got.Data {
			if !math.IsNaN(v) {
				t.Errorf("MatMulAddBiasBlockInto %d columns, element %d of a four-row block skipped the 0·NaN product: got %v", c, i, v)
			}
		}
	}
}

// TestDotShapeAndAliasPanics pins the validation behavior to the
// MatMulInto contract.
func TestDotShapeAndAliasPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	a := New(2, 3)
	bT := New(4, 3)
	b := New(3, 4)
	expectPanic("inner mismatch", func() { MatMulDotInto(New(2, 4), a, New(4, 2)) })
	expectPanic("dst shape", func() { MatMulDotInto(New(3, 4), a, bT) })
	expectPanic("dst aliases a", func() { MatMulDotInto(a, a, New(3, 3)) })
	expectPanic("block inner mismatch", func() { MatMulBlockInto(New(2, 4), a, New(4, 4)) })
	expectPanic("block dst shape", func() { MatMulBlockInto(New(3, 4), a, b) })
	expectPanic("bias shape", func() { MatMulAddBiasBlockInto(New(2, 4), a, b, New(1, 3)) })
	expectPanic("dual outer mismatch", func() { MatMulDualAddBiasBlockInto(New(2, 4), a, b, New(3, 3), b, New(1, 4)) })
	expectPanic("dual second inner mismatch", func() { MatMulDualAddBiasBlockInto(New(2, 4), a, b, New(2, 2), b, New(1, 4)) })
	expectPanic("transA inner mismatch", func() { AddMatMulTransABlockInto(New(3, 4), a, New(3, 4)) })
	expectPanic("transA grad shape", func() { AddMatMulTransABlockInto(New(3, 3), a, New(2, 4)) })
	sq := New(3, 3)
	expectPanic("dst aliases bt", func() { MatMulDotInto(sq, New(3, 3), sq) })
	expectPanic("block dst aliases b", func() { MatMulBlockInto(sq, New(3, 3), sq) })
	row := New(1, 3)
	expectPanic("dst aliases bias", func() { MatMulAddBiasBlockInto(row, New(1, 3), New(3, 3), row) })
	expectPanic("transA grad aliases a", func() { AddMatMulTransABlockInto(sq, sq, New(3, 3)) })
	expectPanic("transA grad aliases b", func() { AddMatMulTransABlockInto(sq, New(3, 3), sq) })
}
