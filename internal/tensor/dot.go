package tensor

import "fmt"

// This file holds the input-gradient product dy·Wᵀ of every layer
// backward. Its second operand is the transposed one, and a canonical
// in×out weight matrix is exactly Wᵀ's transpose, so every dst element is
// a dot product of two contiguous rows: one of dy, one of W. The forward
// products and the weight gradients run on the block kernel (kernel.go).
//
// The bit-identity invariant of kernel.go holds here too: blocking is over
// rows and columns of dst only, never over k, and each element receives
// its products in ascending-k order from a +0 start, so MatMulDotInto is
// bit-identical to MatMulInto against the transposed operand for every
// shape. dot_test.go gates this.

// MatMulDotInto computes dst = a·b with the second operand pre-transposed
// (bt is bᵀ), bit-identical to MatMulInto.
func MatMulDotInto(dst, a, bt *Matrix) {
	if a.Cols != bt.Cols {
		panic(fmt.Sprintf("tensor: MatMulDotInto inner mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, bt.Rows, bt.Cols))
	}
	checkShape("MatMulDotInto", dst, a.Rows, bt.Rows)
	noAlias("MatMulDotInto", dst, a)
	noAlias("MatMulDotInto", dst, bt)
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
			var s0, s1, s2, s3, s4, s5 float64
			for kk, av := range arow {
				s0 += av * c0[kk]
				s1 += av * c1[kk]
				s2 += av * c2[kk]
				s3 += av * c3[kk]
				s4 += av * c4[kk]
				s5 += av * c5[kk]
			}
			o := (*[6]float64)(dst.Row(i)[j:])
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
			var s0, s1, s2, s3 float64
			for kk, av := range arow {
				s0 += av * c0[kk]
				s1 += av * c1[kk]
				s2 += av * c2[kk]
				s3 += av * c3[kk]
			}
			o := (*[4]float64)(dst.Row(i)[j:])
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		}
	}
	for ; j < c; j++ {
		c0 := bt.Row(j)[:k]
		for i := 0; i < rows; i++ {
			arow := a.Row(i)[:k]
			var s float64
			for kk, av := range arow {
				s += av * c0[kk]
			}
			dst.Row(i)[j] = s
		}
	}
}
