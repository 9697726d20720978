// Package tensor provides dense float64 matrices and the small set of
// linear-algebra operations needed by the hand-written neural networks in
// internal/nn: matrix products, element-wise maps, reductions, and random
// initialization. Everything is row-major and allocation is explicit so
// hot loops can reuse buffers.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix by copying the given rows; all rows must share
// one length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: ragged row %d: len %d != %d", i, len(r), cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a shared slice.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets all elements to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets all elements to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// sameShape panics unless a and b have identical dimensions.
func sameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Add returns a + b.
func Add(a, b *Matrix) *Matrix {
	sameShape("Add", a, b)
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Matrix) {
	sameShape("AddInPlace", a, b)
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Sub returns a - b.
func Sub(a, b *Matrix) *Matrix {
	sameShape("Sub", a, b)
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
	return out
}

// Mul returns the element-wise (Hadamard) product a ⊙ b.
func Mul(a, b *Matrix) *Matrix {
	sameShape("Mul", a, b)
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v * b.Data[i]
	}
	return out
}

// Scale returns s·a.
func Scale(a *Matrix, s float64) *Matrix {
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v * s
	}
	return out
}

// ScaleInPlace multiplies every element of a by s.
func ScaleInPlace(a *Matrix, s float64) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// MatMul returns the matrix product a·b (a is r×k, b is k×c).
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			// No zero-operand skip here: 0·NaN must stay NaN so numerical
			// divergence propagates instead of being masked.
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Transpose returns aᵀ.
func Transpose(a *Matrix) *Matrix {
	out := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Set(j, i, a.At(i, j))
		}
	}
	return out
}

// Apply returns f applied element-wise to a.
func Apply(a *Matrix, f func(float64) float64) *Matrix {
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = f(v)
	}
	return out
}

// ConcatCols returns [a ‖ b], the column-wise concatenation of two matrices
// with equal row counts.
func ConcatCols(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: ConcatCols rows mismatch %d vs %d", a.Rows, b.Rows))
	}
	out := New(a.Rows, a.Cols+b.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i)[:a.Cols], a.Row(i))
		copy(out.Row(i)[a.Cols:], b.Row(i))
	}
	return out
}

// SplitCols is the inverse of ConcatCols: it splits m into a left matrix of
// leftCols columns and a right matrix of the remaining columns.
func SplitCols(m *Matrix, leftCols int) (left, right *Matrix) {
	if leftCols < 0 || leftCols > m.Cols {
		panic(fmt.Sprintf("tensor: SplitCols leftCols %d out of range [0, %d]", leftCols, m.Cols))
	}
	left = New(m.Rows, leftCols)
	right = New(m.Rows, m.Cols-leftCols)
	for i := 0; i < m.Rows; i++ {
		copy(left.Row(i), m.Row(i)[:leftCols])
		copy(right.Row(i), m.Row(i)[leftCols:])
	}
	return left, right
}

// Sum returns the sum of all elements.
func Sum(a *Matrix) float64 {
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	return s
}

// Dot returns the inner product of two vectors stored as equal-shape
// matrices.
func Dot(a, b *Matrix) float64 {
	sameShape("Dot", a, b)
	s := 0.0
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of all elements of a.
func Norm2(a *Matrix) float64 {
	s := 0.0
	for _, v := range a.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// ArgmaxRow returns the index of the maximum element of row i.
func (m *Matrix) ArgmaxRow(i int) int {
	row := m.Row(i)
	best, bestV := 0, math.Inf(-1)
	for j, v := range row {
		if v > bestV {
			best, bestV = j, v
		}
	}
	return best
}

// SoftmaxRows returns a matrix whose rows are the softmax of a's rows,
// computed with the max-subtraction trick for numerical stability.
func SoftmaxRows(a *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		max := math.Inf(-1)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		orow := out.Row(i)
		for j, v := range row {
			e := math.Exp(v - max)
			orow[j] = e
			sum += e
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	return out
}

// RandUniform fills m with samples from U(-limit, +limit) drawn from rng.
func (m *Matrix) RandUniform(rng *rand.Rand, limit float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// XavierInit fills m with the Glorot-uniform initialization for a layer
// with the given fan-in and fan-out.
func (m *Matrix) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	m.RandUniform(rng, limit)
}

// Equal reports whether a and b have the same shape and all elements are
// within tol of each other.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// stringMaxElems bounds how many elements String renders: a panic that
// formats a 42×z node matrix must not flood the log with its full Data
// slice.
const stringMaxElems = 16

// String implements fmt.Stringer for debugging. Large matrices are
// truncated to their first stringMaxElems elements.
func (m *Matrix) String() string {
	if len(m.Data) <= stringMaxElems {
		return fmt.Sprintf("Matrix(%dx%d)%v", m.Rows, m.Cols, m.Data)
	}
	return fmt.Sprintf("Matrix(%dx%d)%v… (%d elems)", m.Rows, m.Cols, m.Data[:stringMaxElems], len(m.Data))
}
