package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// randMat32 mirrors randMat: values spanning several magnitudes plus exact
// zeros and negative zeros, the cases where accumulation-order and
// zero-skip bugs show up.
func randMat32(rng *rand.Rand, rows, cols int) *Matrix32 {
	m := New32(rows, cols)
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = float32(math.Copysign(0, -1))
		default:
			m.Data[i] = float32((rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(7)-3)))
		}
	}
	return m
}

// bitsEqual32 reports whether a and b match bit-for-bit, including NaN
// payloads and zero signs.
func bitsEqual32(a, b *Matrix32) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// refDot32 is the scalar reference for the f32 dot-kernel family: per
// element one ascending-k float32 accumulator from a +0 start, no
// zero-operand skip. The blocked kernels reorder which element is visited
// when, never an element's own accumulation, so they must match this
// bit-for-bit.
func refDot32(a, bt *Matrix32) *Matrix32 {
	out := New32(a.Rows, bt.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		for j := 0; j < bt.Rows; j++ {
			brow := bt.Row(j)
			var s float32
			for k, av := range arow {
				s += av * brow[k]
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func garbage32(rows, cols int) *Matrix32 {
	g := New32(rows, cols)
	for i := range g.Data {
		g.Data[i] = float32(math.NaN())
	}
	return g
}

// TestInto32BitIdentity is the f32 kernel contract test: every blocked f32
// kernel must match the scalar reference bit-for-bit across random shapes —
// including the ragged tails of the 6/4/1-wide column blocks — with dst
// pre-filled with garbage.
func TestInto32BitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		// Shapes up to 15 cover every ragged-tail combination of the
		// 6-wide, 4-wide, and scalar column blocks.
		r := 1 + rng.Intn(9)
		k1 := 1 + rng.Intn(9)
		k2 := 1 + rng.Intn(9)
		c := 1 + rng.Intn(15)
		a1 := randMat32(rng, r, k1)
		a2 := randMat32(rng, r, k2)
		b1t := randMat32(rng, c, k1)
		b2t := randMat32(rng, c, k2)
		bias := randMat32(rng, 1, c)

		want := refDot32(a1, b1t)
		dst := garbage32(r, c)
		MatMulDot32Into(dst, a1, b1t)
		if !bitsEqual32(dst, want) {
			t.Fatalf("trial %d: MatMulDot32Into diverges from scalar reference at %dx%d·(%dx%d)ᵀ", trial, r, k1, c, k1)
		}

		wantBias := refDot32(a1, b1t)
		for i := 0; i < r; i++ {
			row := wantBias.Row(i)
			for j, bv := range bias.Data {
				row[j] += bv
			}
		}
		dst = garbage32(r, c)
		MatMulAddBiasDot32Into(dst, a1, b1t, bias)
		if !bitsEqual32(dst, wantBias) {
			t.Fatalf("trial %d: MatMulAddBiasDot32Into diverges from scalar reference", trial)
		}

		// Dual: each product keeps its own accumulator, terms combine
		// left to right once per element.
		p1 := refDot32(a1, b1t)
		p2 := refDot32(a2, b2t)
		wantDual := New32(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				wantDual.Set(i, j, p1.At(i, j)+p2.At(i, j)+bias.At(0, j))
			}
		}
		dst = garbage32(r, c)
		MatMulDualAddBiasDot32Into(dst, a1, b1t, a2, b2t, bias)
		if !bitsEqual32(dst, wantDual) {
			t.Fatalf("trial %d: MatMulDualAddBiasDot32Into diverges from scalar reference", trial)
		}
	}
}

// TestInto32NaNPropagation pins the no-zero-skip contract: like MatMulInto,
// the f32 kernels must form 0·NaN and propagate it instead of skipping
// zero operands.
func TestInto32NaNPropagation(t *testing.T) {
	nan := float32(math.NaN())
	a := &Matrix32{Rows: 1, Cols: 2, Data: []float32{0, 1}}
	bt := &Matrix32{Rows: 1, Cols: 2, Data: []float32{nan, 2}}
	dst := New32(1, 1)
	MatMulDot32Into(dst, a, bt)
	if got := dst.At(0, 0); !math.IsNaN(float64(got)) {
		t.Errorf("MatMulDot32Into masked NaN through a zero operand: got %v", got)
	}
	bias := New32(1, 1)
	dst = New32(1, 1)
	MatMulAddBiasDot32Into(dst, a, bt, bias)
	if got := dst.At(0, 0); !math.IsNaN(float64(got)) {
		t.Errorf("MatMulAddBiasDot32Into masked NaN through a zero operand: got %v", got)
	}
	dst = New32(1, 1)
	MatMulDualAddBiasDot32Into(dst, a, bt, a, bt, bias)
	if got := dst.At(0, 0); !math.IsNaN(float64(got)) {
		t.Errorf("MatMulDualAddBiasDot32Into masked NaN through a zero operand: got %v", got)
	}
}

// TestInto32Aliasing checks the product kernels panic on a fully aliased
// dst, like their float64 counterparts.
func TestInto32Aliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	square := randMat32(rng, 6, 6)
	bias := randMat32(rng, 1, 6)
	mustPanic := []struct {
		name string
		run  func()
	}{
		{"MatMulDot32Into-a", func() { MatMulDot32Into(square, square, randMat32(rng, 6, 6)) }},
		{"MatMulDot32Into-bt", func() { MatMulDot32Into(square, randMat32(rng, 6, 6), square) }},
		{"MatMulAddBiasDot32Into", func() { MatMulAddBiasDot32Into(square, square, randMat32(rng, 6, 6), bias) }},
		{"MatMulDualAddBiasDot32Into", func() {
			MatMulDualAddBiasDot32Into(square, randMat32(rng, 6, 6), square, randMat32(rng, 6, 6), randMat32(rng, 6, 6), bias)
		}},
		{"Transpose32Into", func() { Transpose32Into(square, square) }},
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

	// Tanh32Into is element-wise: full aliasing must work.
	a := randMat32(rng, 5, 7)
	want := New32(5, 7)
	Tanh32Into(want, a)
	Tanh32Into(a, a)
	if !bitsEqual32(a, want) {
		t.Error("Tanh32Into with dst==a diverges from separate-dst result")
	}
}

// FuzzMatMulDot32 drives the blocked kernel against the scalar reference
// with fuzz-chosen shapes and bit patterns (including NaN, Inf, and
// denormals the random generator never produces).
func FuzzMatMulDot32(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(7), int64(1))
	f.Add(uint8(1), uint8(1), uint8(1), int64(2))
	f.Add(uint8(2), uint8(9), uint8(13), int64(3))
	f.Fuzz(func(t *testing.T, rr, kk, cc uint8, seed int64) {
		r := 1 + int(rr%9)
		k := 1 + int(kk%9)
		c := 1 + int(cc%15)
		rng := rand.New(rand.NewSource(seed))
		a := randMat32(rng, r, k)
		bt := randMat32(rng, c, k)
		// Sprinkle special values driven by the seed.
		specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e-42, -1e-42}
		for i := 0; i < 3; i++ {
			a.Data[rng.Intn(len(a.Data))] = specials[rng.Intn(len(specials))]
			bt.Data[rng.Intn(len(bt.Data))] = specials[rng.Intn(len(specials))]
		}
		want := refDot32(a, bt)
		dst := garbage32(r, c)
		MatMulDot32Into(dst, a, bt)
		if !bitsEqual32(dst, want) {
			t.Fatalf("blocked kernel diverges from scalar reference at %dx%d·(%dx%d)ᵀ", r, k, c, k)
		}
	})
}

// TestStage32Widen pins the staging contract: Stage32 rounds to nearest
// float32, Widen is exact, and the round trip is the identity on values
// already representable in float32.
func TestStage32Widen(t *testing.T) {
	src := FromSlice(1, 4, []float64{1.5, math.Pi, 1e-300, math.Copysign(0, -1)})
	s := New32(1, 4)
	Stage32(s, src)
	if s.Data[0] != 1.5 || s.Data[1] != float32(math.Pi) {
		t.Errorf("Stage32 rounding wrong: %v", s.Data)
	}
	if s.Data[2] != 0 {
		t.Errorf("Stage32 should flush 1e-300 to zero, got %v", s.Data[2])
	}
	back := New(1, 4)
	Widen(back, s)
	if back.Data[0] != 1.5 || back.Data[1] != float64(float32(math.Pi)) {
		t.Errorf("Widen not exact: %v", back.Data)
	}
	if math.Signbit(back.Data[3]) != true {
		t.Errorf("negative zero lost through stage/widen: %v", back.Data[3])
	}
}

// TestWorkspaceElemKeys pins the satellite fix: a Get and a Get32 of the
// same shape must come from disjoint pools — the two backends share one
// arena per replica and must never alias each other's scratch.
func TestWorkspaceElemKeys(t *testing.T) {
	var ws Workspace
	m64 := ws.Get(3, 4)
	m32 := ws.Get32(3, 4)
	m64.Fill(7)
	for _, v := range m32.Data {
		if v != 0 {
			t.Fatal("Get32 buffer shares storage with a Get buffer of the same shape")
		}
	}
	n32 := ws.Get32(3, 4)
	if n32 == m32 {
		t.Fatal("two Get32s between Resets returned the same matrix")
	}
	z := ws.GetZero32(2, 2)
	z.Data[0] = 5
	ws.Reset()
	if got := ws.Get32(3, 4); got != m32 {
		t.Error("first Get32 after Reset should reuse the first buffer")
	}
	if got := ws.Get32(3, 4); got != n32 {
		t.Error("second Get32 after Reset should reuse the second buffer")
	}
	if zz := ws.GetZero32(2, 2); zz != z || zz.Data[0] != 0 {
		t.Error("GetZero32 after Reset should reuse and zero the buffer")
	}
	allocs := testing.AllocsPerRun(100, func() {
		ws.Reset()
		ws.Get(3, 4)
		ws.Get32(3, 4)
		ws.GetZero32(2, 2)
	})
	if allocs != 0 {
		t.Errorf("steady-state mixed-element Reset/Get cycle allocates %v times", allocs)
	}
}
