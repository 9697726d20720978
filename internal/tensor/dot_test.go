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

// TestDotBitIdentity is the contract test for the dot-kernel family every
// layer forward runs: each kernel must match its MatMulInto reference
// bit-for-bit across random shapes (crossing the 6- and 4-wide column-block
// boundaries), with dst pre-filled with garbage, and row e of a B-row
// product must equal the one-row product of row e.
func TestDotBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		r := 1 + rng.Intn(9)
		k := 1 + rng.Intn(13)
		k2 := 1 + rng.Intn(13)
		c := 1 + rng.Intn(21)
		a := randMat(rng, r, k)
		b := randMat(rng, k, c)
		a2 := randMat(rng, r, k2)
		b2 := randMat(rng, k2, c)
		bias := randMat(rng, 1, c)
		bT := New(c, k)
		TransposeInto(bT, b)
		b2T := New(c, k2)
		TransposeInto(b2T, b2)

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
			{"MatMulAddBiasDotInto", wantBias, func(dst, a, _ *Matrix) { MatMulAddBiasDotInto(dst, a, bT, bias) }},
			{"MatMulDualAddBiasDotInto", wantDual, func(dst, a, a2 *Matrix) { MatMulDualAddBiasDotInto(dst, a, bT, a2, b2T, bias) }},
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

// TestDotNaNPropagation mirrors TestMatMulNaNPropagation: the dot kernels
// must form every product, so a NaN operand against an explicit zero
// still poisons the destination exactly like MatMulInto.
func TestDotNaNPropagation(t *testing.T) {
	a := FromSlice(1, 2, []float64{0, 1})
	bT := FromSlice(1, 2, []float64{math.NaN(), 2})
	bias := New(1, 1)
	for name, run := range map[string]func(dst *Matrix){
		"MatMulDotInto":            func(dst *Matrix) { MatMulDotInto(dst, a, bT) },
		"MatMulAddBiasDotInto":     func(dst *Matrix) { MatMulAddBiasDotInto(dst, a, bT, bias) },
		"MatMulDualAddBiasDotInto": func(dst *Matrix) { MatMulDualAddBiasDotInto(dst, a, bT, a, bT, bias) },
	} {
		got := New(1, 1)
		run(got)
		if !math.IsNaN(got.At(0, 0)) {
			t.Errorf("%s skipped the 0·NaN product: got %v", name, got.At(0, 0))
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
	expectPanic("inner mismatch", func() { MatMulDotInto(New(2, 4), a, New(4, 2)) })
	expectPanic("dst shape", func() { MatMulDotInto(New(3, 4), a, bT) })
	expectPanic("dst aliases a", func() { MatMulDotInto(a, a, New(3, 3)) })
	expectPanic("bias shape", func() { MatMulAddBiasDotInto(New(2, 4), a, bT, New(1, 3)) })
	expectPanic("dual outer mismatch", func() { MatMulDualAddBiasDotInto(New(2, 4), a, bT, New(3, 3), bT, New(1, 4)) })
}
