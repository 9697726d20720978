package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randMat fills a rows×cols matrix with values spanning several magnitudes
// plus exact zeros and negative zeros, the cases where accumulation-order
// bugs show up.
func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		default:
			m.Data[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return m
}

// bitsEqual reports whether a and b match bit-for-bit, including NaN
// payloads and zero signs.
func bitsEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestIntoBitIdentity is the kernel contract test: every Into kernel must
// produce bit-identical results to its allocating counterpart across random
// shapes, with dst pre-filled with garbage to catch kernels that assume a
// zeroed destination.
func TestIntoBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	garbage := func(rows, cols int) *Matrix {
		g := New(rows, cols)
		for i := range g.Data {
			g.Data[i] = math.NaN()
		}
		return g
	}
	for trial := 0; trial < 200; trial++ {
		r := 1 + rng.Intn(7)
		k := 1 + rng.Intn(7)
		c := 1 + rng.Intn(7)
		a := randMat(rng, r, k)
		b := randMat(rng, r, k)
		cases := []struct {
			name string
			want *Matrix
			run  func(dst *Matrix)
			rows int
			cols int
		}{
			{"AddInto", Add(a, b), func(d *Matrix) { AddInto(d, a, b) }, r, k},
			{"SubInto", Sub(a, b), func(d *Matrix) { SubInto(d, a, b) }, r, k},
			{"MulInto", Mul(a, b), func(d *Matrix) { MulInto(d, a, b) }, r, k},
			{"ScaleInto", Scale(a, 0.37), func(d *Matrix) { ScaleInto(d, a, 0.37) }, r, k},
			{"ApplyInto", Apply(a, math.Tanh), func(d *Matrix) { ApplyInto(d, a, math.Tanh) }, r, k},
			{"TanhInto", Apply(a, math.Tanh), func(d *Matrix) { TanhInto(d, a) }, r, k},
			{"SigmoidInto", Apply(a, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }),
				func(d *Matrix) { SigmoidInto(d, a) }, r, k},
			{"ReLUInto", Apply(a, func(x float64) float64 {
				if x > 0 {
					return x
				}
				return 0
			}), func(d *Matrix) { ReLUInto(d, a) }, r, k},
			{"LeakyReLUInto", Apply(a, func(x float64) float64 {
				if x > 0 {
					return x
				}
				return 0.2 * x
			}), func(d *Matrix) { LeakyReLUInto(d, a, 0.2) }, r, k},
			{"ConcatColsInto", ConcatCols(a, b), func(d *Matrix) { ConcatColsInto(d, a, b) }, r, 2 * k},
			{"SoftmaxRowsInto", SoftmaxRows(a), func(d *Matrix) { SoftmaxRowsInto(d, a) }, r, k},
		}
		// Product kernels need their own operand shapes.
		ma := randMat(rng, r, k)
		mb := randMat(rng, k, c)
		bias := randMat(rng, 1, c)
		biased := MatMul(ma, mb)
		for i := 0; i < biased.Rows; i++ {
			row := biased.Row(i)
			for j, bv := range bias.Data {
				row[j] += bv
			}
		}
		cases = append(cases,
			struct {
				name string
				want *Matrix
				run  func(dst *Matrix)
				rows int
				cols int
			}{"MatMulInto", MatMul(ma, mb), func(d *Matrix) { MatMulInto(d, ma, mb) }, r, c},
			struct {
				name string
				want *Matrix
				run  func(dst *Matrix)
				rows int
				cols int
			}{"MatMulAddBiasInto", biased, func(d *Matrix) { MatMulAddBiasInto(d, ma, mb, bias) }, r, c},
		)
		for _, tc := range cases {
			dst := garbage(tc.rows, tc.cols)
			tc.run(dst)
			if !bitsEqual(dst, tc.want) {
				t.Fatalf("trial %d: %s diverges from allocating op:\n got  %v\n want %v", trial, tc.name, dst, tc.want)
			}
		}
		// SliceColsInto against SplitCols halves.
		lo := rng.Intn(k + 1)
		left, right := SplitCols(a, lo)
		dl := garbage(r, lo)
		SliceColsInto(dl, a, 0)
		dr := garbage(r, k-lo)
		SliceColsInto(dr, a, lo)
		if !bitsEqual(dl, left) || !bitsEqual(dr, right) {
			t.Fatalf("trial %d: SliceColsInto diverges from SplitCols", trial)
		}
	}
}

// TestIntoAliasing exercises the documented aliasing contract: element-wise
// kernels must produce identical results when dst aliases an input, and
// product/layout kernels must panic on full aliasing.
func TestIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 5, 7)
	b := randMat(rng, 5, 7)

	aliased := []struct {
		name string
		want *Matrix
		run  func(dst *Matrix)
	}{
		{"AddInto", Add(a, b), func(d *Matrix) { AddInto(d, d, b) }},
		{"SubInto", Sub(a, b), func(d *Matrix) { SubInto(d, d, b) }},
		{"MulInto", Mul(a, b), func(d *Matrix) { MulInto(d, d, b) }},
		{"ScaleInto", Scale(a, -1.5), func(d *Matrix) { ScaleInto(d, d, -1.5) }},
		{"TanhInto", Apply(a, math.Tanh), func(d *Matrix) { TanhInto(d, d) }},
		{"SigmoidInto", Apply(a, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }),
			func(d *Matrix) { SigmoidInto(d, d) }},
		{"SoftmaxRowsInto", SoftmaxRows(a), func(d *Matrix) { SoftmaxRowsInto(d, d) }},
	}
	for _, tc := range aliased {
		dst := a.Clone()
		tc.run(dst)
		if !bitsEqual(dst, tc.want) {
			t.Errorf("%s with dst==a diverges:\n got  %v\n want %v", tc.name, dst, tc.want)
		}
	}

	square := randMat(rng, 6, 6)
	mustPanic := []struct {
		name string
		run  func()
	}{
		{"MatMulInto", func() { MatMulInto(square, square, randMat(rng, 6, 6)) }},
		{"MatMulInto-b", func() { MatMulInto(square, randMat(rng, 6, 6), square) }},
		{"ConcatColsInto", func() {
			d := randMat(rng, 6, 12)
			ConcatColsInto(d, FromSlice(6, 6, d.Data[:36]), randMat(rng, 6, 6))
		}},
		{"SliceColsInto", func() { SliceColsInto(square, square, 0) }},
	}
	for _, tc := range mustPanic {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: aliased dst did not panic", tc.name)
				}
			}()
			tc.run()
		}()
	}
}

// TestMatMulNaNPropagation pins the satellite fix: MatMul and MatMulInto
// must propagate NaN/Inf through zero operands (0·NaN = NaN).
func TestMatMulNaNPropagation(t *testing.T) {
	a := FromSlice(1, 2, []float64{0, 1})
	b := FromSlice(2, 1, []float64{math.NaN(), 2})
	if got := MatMul(a, b).At(0, 0); !math.IsNaN(got) {
		t.Errorf("MatMul masked NaN through a zero operand: got %v", got)
	}
	dst := New(1, 1)
	MatMulInto(dst, a, b)
	if got := dst.At(0, 0); !math.IsNaN(got) {
		t.Errorf("MatMulInto masked NaN through a zero operand: got %v", got)
	}
}

// TestWorkspace exercises the arena's ownership rules: distinct matrices
// between resets, storage reuse across resets, zero steady-state growth.
func TestWorkspace(t *testing.T) {
	var ws Workspace
	m1 := ws.Get(3, 4)
	m2 := ws.Get(3, 4)
	if m1 == m2 {
		t.Fatal("two Gets between Resets returned the same matrix")
	}
	m3 := ws.GetZero(2, 2)
	m3.Fill(9)
	ws.Reset()
	if got := ws.Get(3, 4); got != m1 {
		t.Error("first Get after Reset should reuse the first buffer")
	}
	if got := ws.Get(3, 4); got != m2 {
		t.Error("second Get after Reset should reuse the second buffer")
	}
	if z := ws.GetZero(2, 2); z != m3 || z.Data[0] != 0 {
		t.Error("GetZero after Reset should reuse and zero the buffer")
	}
	allocs := testing.AllocsPerRun(100, func() {
		ws.Reset()
		ws.Get(3, 4)
		ws.Get(3, 4)
		ws.GetZero(2, 2)
	})
	if allocs != 0 {
		t.Errorf("steady-state Reset/Get cycle allocates %v times", allocs)
	}
}

// TestStringTruncation pins the satellite fix: large matrices must not dump
// their full Data slice.
func TestStringTruncation(t *testing.T) {
	small := FromSlice(1, 3, []float64{1, 2, 3})
	if s := small.String(); !strings.Contains(s, "[1 2 3]") {
		t.Errorf("small matrix should print fully: %q", s)
	}
	big := New(42, 5)
	s := big.String()
	if len(s) > 200 {
		t.Errorf("String of 42x5 matrix is %d bytes, want truncated: %q", len(s), s)
	}
	if !strings.Contains(s, "210 elems") {
		t.Errorf("truncated String should report the element count: %q", s)
	}
}
