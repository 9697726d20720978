//go:build !amd64

package tensor

// gemmWide computes no columns without the amd64 kernel: gemmColumns
// computes them all.
func gemmWide(dst, a, b []float64, rows, cols, k, lda, ldak, ldb, ldd int, accumulate bool) int {
	return 0
}
