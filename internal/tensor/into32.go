package tensor

import (
	"fmt"
	"math"
)

// This file holds the float32 members of the dot-kernel family — the
// compute core of the f32 backend. They mirror the float64 kernels in
// dot.go exactly: weight operands arrive pre-transposed so every dst
// element is a dot product of two contiguous rows, column blocks are the
// outer loop so a block's weight rows stay L1-hot across all batch rows,
// and each element's products accumulate in ascending-k order from a +0
// start with no zero-operand skip (so 0·NaN propagates, like MatMulInto).
//
// Unlike the float64 family there is no bit-identity contract against a
// reference kernel — f32 results are gated by the Table I/III tolerance
// fences in internal/experiments — but the kernels are still deterministic,
// and row e of a B-row product is bit-identical to the one-row product.
//
// All float32 loops are written against contiguous slices with small
// fixed-width accumulator blocks, the shape Go's compiler lowers to packed
// loads where the target supports it; even fully scalar, halved element
// size means halved memory traffic through the same cache hierarchy.

// MatMulDot32Into computes dst = a·b with the second operand pre-transposed
// (bt is bᵀ), in float32. dst must not alias an input.
func MatMulDot32Into(dst, a, bt *Matrix32) {
	if a.Cols != bt.Cols {
		panic(fmt.Sprintf("tensor: MatMulDot32Into inner mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, bt.Rows, bt.Cols))
	}
	checkShape32("MatMulDot32Into", dst, a.Rows, bt.Rows)
	noAlias32("MatMulDot32Into", dst, a)
	noAlias32("MatMulDot32Into", dst, bt)
	k, c := a.Cols, bt.Rows
	rows := a.Rows
	j := 0
	for ; j+6 <= c; j += 6 {
		c0 := bt.Row(j)[:k]
		c1 := bt.Row(j + 1)[:k]
		c2 := bt.Row(j + 2)[:k]
		c3 := bt.Row(j + 3)[:k]
		c4 := bt.Row(j + 4)[:k]
		c5 := bt.Row(j + 5)[:k]
		for i := 0; i < rows; i++ {
			arow := a.Row(i)[:k]
			var s0, s1, s2, s3, s4, s5 float32
			for kk, av := range arow {
				s0 += av * c0[kk]
				s1 += av * c1[kk]
				s2 += av * c2[kk]
				s3 += av * c3[kk]
				s4 += av * c4[kk]
				s5 += av * c5[kk]
			}
			o := (*[6]float32)(dst.Row(i)[j:])
			o[0], o[1], o[2] = s0, s1, s2
			o[3], o[4], o[5] = s3, s4, s5
		}
	}
	for ; j+4 <= c; j += 4 {
		c0 := bt.Row(j)[:k]
		c1 := bt.Row(j + 1)[:k]
		c2 := bt.Row(j + 2)[:k]
		c3 := bt.Row(j + 3)[:k]
		for i := 0; i < rows; i++ {
			arow := a.Row(i)[:k]
			var s0, s1, s2, s3 float32
			for kk, av := range arow {
				s0 += av * c0[kk]
				s1 += av * c1[kk]
				s2 += av * c2[kk]
				s3 += av * c3[kk]
			}
			o := (*[4]float32)(dst.Row(i)[j:])
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		}
	}
	for ; j < c; j++ {
		c0 := bt.Row(j)[:k]
		for i := 0; i < rows; i++ {
			arow := a.Row(i)[:k]
			var s float32
			for kk, av := range arow {
				s += av * c0[kk]
			}
			dst.Row(i)[j] = s
		}
	}
}

// MatMulAddBiasDot32Into computes dst = a·b + bias with the weight matrix
// pre-transposed (bt is bᵀ), in float32: complete ascending-k sum per
// element first, the broadcast bias added once afterwards. dst must not
// alias an input.
func MatMulAddBiasDot32Into(dst, a, bt, bias *Matrix32) {
	if a.Cols != bt.Cols {
		panic(fmt.Sprintf("tensor: MatMulAddBiasDot32Into inner mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, bt.Rows, bt.Cols))
	}
	if bias.Rows != 1 || bias.Cols != bt.Rows {
		panic(fmt.Sprintf("tensor: MatMulAddBiasDot32Into bias shape %dx%d, want 1x%d", bias.Rows, bias.Cols, bt.Rows))
	}
	checkShape32("MatMulAddBiasDot32Into", dst, a.Rows, bt.Rows)
	noAlias32("MatMulAddBiasDot32Into", dst, a)
	noAlias32("MatMulAddBiasDot32Into", dst, bt)
	noAlias32("MatMulAddBiasDot32Into", dst, bias)
	k, c := a.Cols, bt.Rows
	rows := a.Rows
	bd := bias.Data
	j := 0
	for ; j+6 <= c; j += 6 {
		c0 := bt.Row(j)[:k]
		c1 := bt.Row(j + 1)[:k]
		c2 := bt.Row(j + 2)[:k]
		c3 := bt.Row(j + 3)[:k]
		c4 := bt.Row(j + 4)[:k]
		c5 := bt.Row(j + 5)[:k]
		bp := (*[6]float32)(bd[j:])
		for i := 0; i < rows; i++ {
			arow := a.Row(i)[:k]
			var s0, s1, s2, s3, s4, s5 float32
			for kk, av := range arow {
				s0 += av * c0[kk]
				s1 += av * c1[kk]
				s2 += av * c2[kk]
				s3 += av * c3[kk]
				s4 += av * c4[kk]
				s5 += av * c5[kk]
			}
			o := (*[6]float32)(dst.Row(i)[j:])
			o[0] = s0 + bp[0]
			o[1] = s1 + bp[1]
			o[2] = s2 + bp[2]
			o[3] = s3 + bp[3]
			o[4] = s4 + bp[4]
			o[5] = s5 + bp[5]
		}
	}
	for ; j+4 <= c; j += 4 {
		c0 := bt.Row(j)[:k]
		c1 := bt.Row(j + 1)[:k]
		c2 := bt.Row(j + 2)[:k]
		c3 := bt.Row(j + 3)[:k]
		bp := (*[4]float32)(bd[j:])
		for i := 0; i < rows; i++ {
			arow := a.Row(i)[:k]
			var s0, s1, s2, s3 float32
			for kk, av := range arow {
				s0 += av * c0[kk]
				s1 += av * c1[kk]
				s2 += av * c2[kk]
				s3 += av * c3[kk]
			}
			o := (*[4]float32)(dst.Row(i)[j:])
			o[0] = s0 + bp[0]
			o[1] = s1 + bp[1]
			o[2] = s2 + bp[2]
			o[3] = s3 + bp[3]
		}
	}
	for ; j < c; j++ {
		c0 := bt.Row(j)[:k]
		bv := bd[j]
		for i := 0; i < rows; i++ {
			arow := a.Row(i)[:k]
			var s float32
			for kk, av := range arow {
				s += av * c0[kk]
			}
			dst.Row(i)[j] = s + bv
		}
	}
}

// MatMulDualAddBiasDot32Into computes the fused LSTM pre-activation
// dst = a1·b1 + a2·b2 + bias in float32, with both weight matrices
// pre-transposed (b1t is b1ᵀ, b2t is b2ᵀ). Each product keeps its own
// ascending-k accumulator from a +0 start and the three terms combine left
// to right exactly once per element. dst must not alias any input.
func MatMulDualAddBiasDot32Into(dst, a1, b1t, a2, b2t, bias *Matrix32) {
	if a1.Cols != b1t.Cols || a2.Cols != b2t.Cols {
		panic(fmt.Sprintf("tensor: MatMulDualAddBiasDot32Into inner mismatch %dx%d · (%dx%d)ᵀ + %dx%d · (%dx%d)ᵀ",
			a1.Rows, a1.Cols, b1t.Rows, b1t.Cols, a2.Rows, a2.Cols, b2t.Rows, b2t.Cols))
	}
	if a1.Rows != a2.Rows || b1t.Rows != b2t.Rows {
		panic(fmt.Sprintf("tensor: MatMulDualAddBiasDot32Into outer mismatch %dx%d vs %dx%d",
			a1.Rows, b1t.Rows, a2.Rows, b2t.Rows))
	}
	if bias.Rows != 1 || bias.Cols != b1t.Rows {
		panic(fmt.Sprintf("tensor: MatMulDualAddBiasDot32Into bias shape %dx%d, want 1x%d", bias.Rows, bias.Cols, b1t.Rows))
	}
	checkShape32("MatMulDualAddBiasDot32Into", dst, a1.Rows, b1t.Rows)
	for _, src := range []*Matrix32{a1, b1t, a2, b2t, bias} {
		noAlias32("MatMulDualAddBiasDot32Into", dst, src)
	}
	k1, k2, c := a1.Cols, a2.Cols, b1t.Rows
	rows := a1.Rows
	bd := bias.Data
	j := 0
	for ; j+6 <= c; j += 6 {
		c0 := b1t.Row(j)[:k1]
		c1 := b1t.Row(j + 1)[:k1]
		c2 := b1t.Row(j + 2)[:k1]
		c3 := b1t.Row(j + 3)[:k1]
		c4 := b1t.Row(j + 4)[:k1]
		c5 := b1t.Row(j + 5)[:k1]
		d0 := b2t.Row(j)[:k2]
		d1 := b2t.Row(j + 1)[:k2]
		d2 := b2t.Row(j + 2)[:k2]
		d3 := b2t.Row(j + 3)[:k2]
		d4 := b2t.Row(j + 4)[:k2]
		d5 := b2t.Row(j + 5)[:k2]
		bp := (*[6]float32)(bd[j:])
		for i := 0; i < rows; i++ {
			a1row := a1.Row(i)[:k1]
			var s0, s1, s2, s3, s4, s5 float32
			for k, av := range a1row {
				s0 += av * c0[k]
				s1 += av * c1[k]
				s2 += av * c2[k]
				s3 += av * c3[k]
				s4 += av * c4[k]
				s5 += av * c5[k]
			}
			a2row := a2.Row(i)[:k2]
			var u0, u1, u2, u3, u4, u5 float32
			for k, av := range a2row {
				u0 += av * d0[k]
				u1 += av * d1[k]
				u2 += av * d2[k]
				u3 += av * d3[k]
				u4 += av * d4[k]
				u5 += av * d5[k]
			}
			o := (*[6]float32)(dst.Row(i)[j:])
			o[0] = s0 + u0 + bp[0]
			o[1] = s1 + u1 + bp[1]
			o[2] = s2 + u2 + bp[2]
			o[3] = s3 + u3 + bp[3]
			o[4] = s4 + u4 + bp[4]
			o[5] = s5 + u5 + bp[5]
		}
	}
	for ; j < c; j++ {
		c0 := b1t.Row(j)[:k1]
		d0 := b2t.Row(j)[:k2]
		bv := bd[j]
		for i := 0; i < rows; i++ {
			a1row := a1.Row(i)[:k1]
			var s float32
			for k, av := range a1row {
				s += av * c0[k]
			}
			a2row := a2.Row(i)[:k2]
			var u float32
			for k, av := range a2row {
				u += av * d0[k]
			}
			dst.Row(i)[j] = s + u + bv
		}
	}
}

// Tanh32Into writes tanh(a) element-wise into dst, rounding each result to
// float32. dst may fully alias a (element-wise, like TanhInto).
func Tanh32Into(dst, a *Matrix32) {
	checkShape32("Tanh32Into", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = float32(math.Tanh(float64(v)))
	}
}
