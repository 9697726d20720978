package tensor

// gemmWide runs gemm's even leading columns on the SSE2 kernel and returns
// how many it computed; gemmColumns computes the odd last one.
func gemmWide(dst, a, b []float64, rows, cols, k, lda, ldak, ldb, ldd int, accumulate bool) int {
	even := cols &^ 1
	if even > 0 {
		gemmBlocks(dst, a, b, rows, even, k, lda, ldak, ldb, ldd, accumulate)
	}
	return even
}

// gemmBlocks is gemm over dst columns [0, cols) in 16-, 8-, 4- and 2-wide
// blocks (kernel_amd64.s). cols must be even and rows positive. SSE2 is
// part of the amd64 baseline, so it runs on every amd64 CPU.
//
//go:noescape
func gemmBlocks(dst, a, b []float64, rows, cols, k, lda, ldak, ldb, ldd int, accumulate bool)
