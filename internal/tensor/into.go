package tensor

import (
	"fmt"
	"math"
)

// This file holds the out-parameter ("Into") kernels of the zero-allocation
// compute core. Every kernel writes its result into a caller-provided dst
// matrix whose shape must already match — shape mismatches panic, they are
// never resized — and is bit-identical to its allocating counterpart: loop
// and summation order are the same, so reusing buffers can never change a
// float. The products the layers run live in kernel.go and dot.go;
// MatMulInto and MatMulAddBiasInto here are their references.
//
// # Aliasing contract
//
// Element-wise kernels (AddInto, SubInto, MulInto, ScaleInto, ApplyInto,
// TanhInto, SigmoidInto, ReLUInto, LeakyReLUInto, SoftmaxRowsInto) read
// element (i) strictly before writing element (i), so dst may fully alias
// any input (dst == a, dst == b, or both).
//
// Product and layout kernels (MatMulInto, MatMulAddBiasInto, the products
// in kernel.go and dot.go, ConcatColsInto, SliceColsInto) read inputs while
// writing dst, so dst must not alias an input. Full aliasing (shared first
// element) panics; partial overlap of distinct allocations is undetectable
// and undefined.
//
// # Adding a kernel
//
// Mirror an existing allocating op exactly — same traversal, same
// per-element accumulation order — and add a case to the bit-identity
// property test (into_test.go here, kernel_test.go or dot_test.go for a
// product) before using it anywhere. A new product belongs on the block
// kernel (kernel.go): register accumulators, blocked over dst columns,
// never over k.

// checkShape panics unless m has exactly the given shape.
func checkShape(op string, m *Matrix, rows, cols int) {
	if m.Rows != rows || m.Cols != cols {
		panic(fmt.Sprintf("tensor: %s dst shape %dx%d, want %dx%d", op, m.Rows, m.Cols, rows, cols))
	}
}

// noAlias panics when dst demonstrably shares backing storage with src.
// Only full aliasing (same first element) is detectable; partial overlap
// is the caller's responsibility.
func noAlias(op string, dst, src *Matrix) {
	if len(dst.Data) > 0 && len(src.Data) > 0 && &dst.Data[0] == &src.Data[0] {
		panic("tensor: " + op + " dst aliases an input")
	}
}

// AddInto writes a + b into dst. dst may alias a and/or b.
func AddInto(dst, a, b *Matrix) {
	sameShape("AddInto", a, b)
	checkShape("AddInto", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
}

// SubInto writes a - b into dst. dst may alias a and/or b.
func SubInto(dst, a, b *Matrix) {
	sameShape("SubInto", a, b)
	checkShape("SubInto", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v - b.Data[i]
	}
}

// MulInto writes the element-wise product a ⊙ b into dst. dst may alias a
// and/or b.
func MulInto(dst, a, b *Matrix) {
	sameShape("MulInto", a, b)
	checkShape("MulInto", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v * b.Data[i]
	}
}

// ScaleInto writes s·a into dst. dst may alias a.
func ScaleInto(dst, a *Matrix, s float64) {
	checkShape("ScaleInto", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v * s
	}
}

// ApplyInto writes f applied element-wise to a into dst. dst may alias a.
// Prefer the dedicated TanhInto/SigmoidInto/ReLUInto kernels on hot paths:
// they avoid the per-element closure dispatch.
func ApplyInto(dst, a *Matrix, f func(float64) float64) {
	checkShape("ApplyInto", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = f(v)
	}
}

// TanhInto writes tanh(a) into dst element-wise. dst may alias a.
func TanhInto(dst, a *Matrix) {
	checkShape("TanhInto", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = math.Tanh(v)
	}
}

// SigmoidInto writes 1/(1+e^(−a)) into dst element-wise. dst may alias a.
func SigmoidInto(dst, a *Matrix) {
	checkShape("SigmoidInto", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = 1 / (1 + math.Exp(-v))
	}
}

// ReLUInto writes max(a, 0) into dst element-wise. dst may alias a.
func ReLUInto(dst, a *Matrix) {
	checkShape("ReLUInto", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
}

// LeakyReLUInto writes a where positive and slope·a elsewhere into dst.
// dst may alias a.
func LeakyReLUInto(dst, a *Matrix, slope float64) {
	checkShape("LeakyReLUInto", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = slope * v
		}
	}
}

// MatMulInto writes the matrix product a·b into dst (a is r×k, b is k×c,
// dst is r×c). dst must not alias a or b. Identical accumulation order to
// MatMul: dst[i][j] sums a[i][k]·b[k][j] over ascending k from a +0 start.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulInto inner mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkShape("MatMulInto", dst, a.Rows, b.Cols)
	noAlias("MatMulInto", dst, a)
	noAlias("MatMulInto", dst, b)
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for k, av := range arow {
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulAddBiasInto writes a·b + bias into dst, with bias a 1×c row
// broadcast over the rows of the product. Bit-identical to MatMulInto
// followed by a broadcast add: each dst element receives its complete
// k-sum first and the bias is added once afterwards. dst must not alias
// a or b.
func MatMulAddBiasInto(dst, a, b, bias *Matrix) {
	if bias.Rows != 1 || bias.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulAddBiasInto bias shape %dx%d, want 1x%d", bias.Rows, bias.Cols, b.Cols))
	}
	MatMulInto(dst, a, b)
	for i := 0; i < dst.Rows; i++ {
		row := dst.Row(i)
		for j, bv := range bias.Data {
			row[j] += bv
		}
	}
}

// ConcatColsInto writes [a ‖ b] into dst (dst is a.Rows×(a.Cols+b.Cols)).
// dst must not alias a or b.
func ConcatColsInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: ConcatColsInto rows mismatch %d vs %d", a.Rows, b.Rows))
	}
	checkShape("ConcatColsInto", dst, a.Rows, a.Cols+b.Cols)
	noAlias("ConcatColsInto", dst, a)
	noAlias("ConcatColsInto", dst, b)
	for i := 0; i < a.Rows; i++ {
		copy(dst.Row(i)[:a.Cols], a.Row(i))
		copy(dst.Row(i)[a.Cols:], b.Row(i))
	}
}

// SliceColsInto copies columns [lo, lo+dst.Cols) of a into dst — the
// buffer-reusing form of one SplitCols half. dst must not alias a.
func SliceColsInto(dst, a *Matrix, lo int) {
	if lo < 0 || lo+dst.Cols > a.Cols {
		panic(fmt.Sprintf("tensor: SliceColsInto cols [%d, %d) out of range [0, %d]", lo, lo+dst.Cols, a.Cols))
	}
	if dst.Rows != a.Rows {
		panic(fmt.Sprintf("tensor: SliceColsInto rows mismatch %d vs %d", dst.Rows, a.Rows))
	}
	noAlias("SliceColsInto", dst, a)
	for i := 0; i < a.Rows; i++ {
		copy(dst.Row(i), a.Row(i)[lo:lo+dst.Cols])
	}
}

// SoftmaxRowsInto writes the row-wise softmax of a into dst with the same
// max-subtraction trick as SoftmaxRows. dst may alias a: each element is
// read before its cell is overwritten, and the normalization pass only
// touches dst.
func SoftmaxRowsInto(dst, a *Matrix) {
	checkShape("SoftmaxRowsInto", dst, a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		max := math.Inf(-1)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		orow := dst.Row(i)
		for j, v := range row {
			e := math.Exp(v - max)
			orow[j] = e
			sum += e
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
}
