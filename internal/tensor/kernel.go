package tensor

import "fmt"

// This file holds the block-kernel family: every forward product of the
// nn layers (Linear, GAT φ1/φ3, the LSTM's fused pre-activation) and every
// weight gradient xᵀ·dy, all against weights in their canonical in×out
// layout. One kernel serves them all. It computes a block of dst columns
// j…j+w as Σₖ a[i,k]·b[k, j:j+w], reading b row by row, for every row i
// of dst in one call; a stride for a's k axis lets the weight gradient
// read xᵀ down the columns of x without a transpose. On amd64 the blocks
// run in SSE2 assembly (kernel_amd64.s), 16, 8, 4 or 2 columns wide, and
// a final odd column runs in gemmColumns below; elsewhere gemmColumns
// runs every column.
//
// # Bit-identity invariant
//
// Blocking is over rows and columns of dst only — NEVER over the k
// accumulation axis. Every dst element receives its products in
// ascending-k order from a +0 start, one multiply then one add per
// product (MULPD then ADDPD, never a fused multiply-add), exactly like
// MatMulInto, with no zero-operand skip (0·NaN propagates). A call either
// stores each element's complete sum or adds it to the element once, and
// a bias is added after the complete sum. So every kernel here is
// bit-identical to its MatMulInto reference for every shape, and row e of
// a B-row product is bit-identical to the one-row product of row e. The
// property tests in kernel_test.go and dot_test.go gate this.

// MatMulBlockInto writes a·b into dst (a is r×k, b is k×c in its canonical
// layout, dst is r×c). Bit-identical to MatMulInto. dst must not alias a
// or b.
func MatMulBlockInto(dst, a, b *Matrix) {
	checkProduct("MatMulBlockInto", dst, a, b)
	product("MatMulBlockInto", dst, a, b, false)
}

// MatMulAddBiasBlockInto writes a·b + bias into dst, bias a 1×c row added
// after each element's complete sum. Bit-identical to MatMulAddBiasInto.
// dst must not alias any input.
func MatMulAddBiasBlockInto(dst, a, b, bias *Matrix) {
	const op = "MatMulAddBiasBlockInto"
	checkProduct(op, dst, a, b)
	checkBias(op, dst, bias)
	product(op, dst, a, b, false)
	addBias(dst, bias)
}

// MatMulDualAddBiasBlockInto writes the LSTM pre-activation
// (a1·b1 + a2·b2) + bias into dst. Bit-identical to MatMulInto(z, a1, b1);
// MatMulInto(zh, a2, b2); AddInPlace(z, zh) plus a broadcast bias add:
// each product keeps its own ascending-k sum from +0, the second sum is
// added to the first once, and the bias last. dst must not alias any input.
func MatMulDualAddBiasBlockInto(dst, a1, b1, a2, b2, bias *Matrix) {
	const op = "MatMulDualAddBiasBlockInto"
	checkProduct(op, dst, a1, b1)
	checkProduct(op, dst, a2, b2)
	checkBias(op, dst, bias)
	product(op, dst, a1, b1, false)
	product(op, dst, a2, b2, true)
	addBias(dst, bias)
}

// AddMatMulTransABlockInto accumulates aᵀ·b into grad (a is k×r, b is k×c,
// grad is r×c): the weight-gradient product xᵀ·dy of every layer backward.
// Each grad element's complete ascending-k sum is formed from +0 and then
// added to the element once, which is the operation sequence of
// materializing MatMul(Transpose(a), b) and AddInPlace-ing it, so the two
// are bit-identical for every shape. grad must not alias a or b.
func AddMatMulTransABlockInto(grad, a, b *Matrix) {
	const op = "AddMatMulTransABlockInto"
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: %s inner mismatch %dx%d ᵀ· %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkShape(op, grad, a.Cols, b.Cols)
	noAlias(op, grad, a)
	noAlias(op, grad, b)
	// Row i of aᵀ is column i of a: stride 1 across rows, a.Cols along k.
	gemm(span(op, grad), span(op, a), span(op, b), a.Cols, b.Cols, a.Rows, 1, a.Cols, b.Cols, b.Cols, true)
}

// checkProduct panics unless dst = a·b is well shaped and dst aliases
// neither operand.
func checkProduct(op string, dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: %s inner mismatch %dx%d · %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkShape(op, dst, a.Rows, b.Cols)
	noAlias(op, dst, a)
	noAlias(op, dst, b)
}

// checkBias panics unless bias is one row as wide as dst and dst does not
// alias it.
func checkBias(op string, dst, bias *Matrix) {
	if bias.Rows != 1 || bias.Cols != dst.Cols {
		panic(fmt.Sprintf("tensor: %s bias shape %dx%d, want 1x%d", op, bias.Rows, bias.Cols, dst.Cols))
	}
	noAlias(op, dst, bias)
}

// span returns m's Rows·Cols elements, panicking when Data is shorter:
// the assembly reads by stride and checks no bounds itself.
func span(op string, m *Matrix) []float64 {
	n := m.Rows * m.Cols
	if n < 0 || len(m.Data) < n {
		panic(fmt.Sprintf("tensor: %s operand %dx%d holds %d elements", op, m.Rows, m.Cols, len(m.Data)))
	}
	return m.Data[:n]
}

// product stores (or, with accumulate, adds) a·b into dst, all three
// row-major and already checked by checkProduct.
func product(op string, dst, a, b *Matrix, accumulate bool) {
	gemm(span(op, dst), span(op, a), span(op, b), a.Rows, b.Cols, a.Cols, a.Cols, 1, b.Cols, b.Cols, accumulate)
}

// addBias adds the bias row to every row of dst.
func addBias(dst, bias *Matrix) {
	bd := bias.Data[:dst.Cols]
	for i := 0; i < dst.Rows; i++ {
		row := dst.Row(i)[:len(bd)]
		for j, bv := range bd {
			row[j] += bv
		}
	}
}

// gemm computes the rows×cols product Σₖ a[i·lda + k·ldak]·b[k·ldb + j]
// for every dst[i·ldd + j] and stores it, or with accumulate adds it to
// dst once. Strides are in elements; the slices must cover every index.
func gemm(dst, a, b []float64, rows, cols, k, lda, ldak, ldb, ldd int, accumulate bool) {
	if rows == 0 || cols == 0 {
		return
	}
	j := gemmWide(dst, a, b, rows, cols, k, lda, ldak, ldb, ldd, accumulate)
	gemmColumns(dst, a, b, rows, j, cols, k, lda, ldak, ldb, ldd, accumulate)
}

// gemmColumns is gemm over dst columns [j0, j1) in Go, one column at a
// time and four rows at a time, so four independent sums replace one
// dependent add chain per row. It is the kernel's reference in the tests.
// a is read either row-major (ldak == 1) or down its columns (lda == 1),
// the two layouts gemm's callers pass.
func gemmColumns(dst, a, b []float64, rows, j0, j1, k, lda, ldak, ldb, ldd int, accumulate bool) {
	for j := j0; j < j1; j++ {
		i := 0
		for ; i+4 <= rows; i += 4 {
			var s0, s1, s2, s3 float64
			if ldak == 1 {
				s0, s1, s2, s3 = dot4Rows(a, i*lda, lda, b, j, ldb, k)
			} else {
				s0, s1, s2, s3 = dot4Cols(a, i, ldak, b, j, ldb, k)
			}
			o := i*ldd + j
			if accumulate {
				dst[o] += s0
				dst[o+ldd] += s1
				dst[o+2*ldd] += s2
				dst[o+3*ldd] += s3
			} else {
				dst[o] = s0
				dst[o+ldd] = s1
				dst[o+2*ldd] = s2
				dst[o+3*ldd] = s3
			}
		}
		for ; i < rows; i++ {
			var s float64
			for kk, ai, bi := 0, i*lda, j; kk < k; kk, ai, bi = kk+1, ai+ldak, bi+ldb {
				s += a[ai] * b[bi]
			}
			if accumulate {
				dst[i*ldd+j] += s
			} else {
				dst[i*ldd+j] = s
			}
		}
	}
}

// dot4Rows returns the k-term sums of the four rows of a that start at
// ai, ai+lda, ai+2·lda and ai+3·lda (each row contiguous) times the column
// of b that starts at bi and steps by ldb. The helpers keep gemmColumns'
// loop state in registers.
func dot4Rows(a []float64, ai, lda int, b []float64, bi, ldb, k int) (s0, s1, s2, s3 float64) {
	if k == 0 {
		return 0, 0, 0, 0
	}
	a0 := a[ai:][:k]
	a1 := a[ai+lda:][:k]
	a2 := a[ai+2*lda:][:k]
	a3 := a[ai+3*lda:][:k]
	for kk := 0; kk < len(a0); kk, bi = kk+1, bi+ldb {
		bv := b[bi]
		s0 += a0[kk] * bv
		s1 += a1[kk] * bv
		s2 += a2[kk] * bv
		s3 += a3[kk] * bv
	}
	return s0, s1, s2, s3
}

// dot4Cols is dot4Rows for a read down its columns: the four rows'
// elements at each k are adjacent, and k steps by ldak.
func dot4Cols(a []float64, ai, ldak int, b []float64, bi, ldb, k int) (s0, s1, s2, s3 float64) {
	for kk := 0; kk < k; kk, ai, bi = kk+1, ai+ldak, bi+ldb {
		ap := (*[4]float64)(a[ai:])
		bv := b[bi]
		s0 += ap[0] * bv
		s1 += ap[1] * bv
		s2 += ap[2] * bv
		s3 += ap[3] * bv
	}
	return s0, s1, s2, s3
}
