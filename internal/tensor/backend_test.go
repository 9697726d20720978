package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestBackendLookup(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string
	}{{"", "f64"}, {"f64", "f64"}, {"f32", "f32"}} {
		be, err := Lookup(tc.name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", tc.name, err)
		}
		if be.Name() != tc.want {
			t.Errorf("Lookup(%q).Name() = %q, want %q", tc.name, be.Name(), tc.want)
		}
	}
	if _, err := Lookup("f16"); err == nil {
		t.Error("Lookup(f16) should fail")
	} else if !strings.Contains(err.Error(), "f64") || !strings.Contains(err.Error(), "f32") {
		t.Errorf("Lookup error should name the valid backends: %v", err)
	}
	if Default().Name() != "f64" {
		t.Errorf("Default() = %q, want f64", Default().Name())
	}
}

// TestBackendF64BitIdentity pins the golden-path contract: every F64
// backend method must reproduce the exact MatMulInto reference sequence,
// bit for bit, at any row count.
func TestBackendF64BitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var ws Workspace
	for trial := 0; trial < 100; trial++ {
		r := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		c := 1 + rng.Intn(13)
		x := randMat(rng, r, k)
		wMat := randMat(rng, k, c)
		bMat := randMat(rng, 1, c)
		w, b := NewWeights(wMat), NewWeights(bMat)

		ws.Reset()
		got := New(r, c)
		F64.MatMul(&ws, got, x, w)
		want := New(r, c)
		MatMulInto(want, x, wMat)
		if !bitsEqual(got, want) {
			t.Fatalf("trial %d: F64.MatMul diverges from MatMulInto", trial)
		}

		F64.MatMulAddBias(&ws, got, x, w, b)
		MatMulAddBiasInto(want, x, wMat, bMat)
		if !bitsEqual(got, want) {
			t.Fatalf("trial %d: F64.MatMulAddBias diverges from MatMulAddBiasInto", trial)
		}

		// LSTM pre-activation against the MatMulInto + AddInPlace + bias
		// sequence.
		h := randMat(rng, r, k)
		whMat := randMat(rng, k, c)
		wh := NewWeights(whMat)
		wantZ := New(r, c)
		MatMulInto(wantZ, x, wMat)
		zh := New(r, c)
		MatMulInto(zh, h, whMat)
		AddInPlace(wantZ, zh)
		for i := 0; i < r; i++ {
			row := wantZ.Row(i)
			for j, bv := range bMat.Data {
				row[j] += bv
			}
		}
		ws.Reset()
		gotZ := New(r, c)
		F64.LSTMPreact(&ws, gotZ, x, w, h, wh, b)
		if !bitsEqual(gotZ, wantZ) {
			t.Fatalf("trial %d: F64.LSTMPreact diverges from the reference step sequence", trial)
		}

		F64.Tanh(got, wantZ)
		TanhInto(want, wantZ)
		if !bitsEqual(got, want) {
			t.Fatalf("trial %d: F64.Tanh diverges from TanhInto", trial)
		}
	}
}

// TestBackendF32Tolerance checks the f32 backend tracks the f64 results to
// float32-level relative error on well-conditioned inputs, and that row e
// of a B-row f32 product is bit-identical to the one-row product of row e.
func TestBackendF32Tolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var ws Workspace
	const rtol = 1e-4 // ~1000 ulp of float32 headroom for k-term sums with cancellation
	relErr := func(got, want *Matrix) float64 {
		worst := 0.0
		for i := range got.Data {
			d := math.Abs(got.Data[i] - want.Data[i])
			if s := math.Abs(want.Data[i]); s > 1e-6 {
				d /= s
			}
			if d > worst {
				worst = d
			}
		}
		return worst
	}
	for trial := 0; trial < 50; trial++ {
		r := 1 + rng.Intn(8)
		k := 1 + rng.Intn(32)
		c := 1 + rng.Intn(13)
		x := New(r, k)
		x.RandUniform(rng, 1)
		wMat := New(k, c)
		wMat.RandUniform(rng, 1)
		bMat := New(1, c)
		bMat.RandUniform(rng, 1)
		w, b := NewWeights(wMat), NewWeights(bMat)

		ws.Reset()
		f64out := New(r, c)
		F64.MatMulAddBias(&ws, f64out, x, w, b)
		f32out := New(r, c)
		F32.MatMulAddBias(&ws, f32out, x, w, b)
		if e := relErr(f32out, f64out); e > rtol {
			t.Fatalf("trial %d: f32 MatMulAddBias rel err %g > %g", trial, e, rtol)
		}

		for e := 0; e < r; e++ {
			one := New(1, c)
			F32.MatMulAddBias(&ws, one, FromSlice(1, k, x.Row(e)), w, b)
			if !bitsEqual(one, FromSlice(1, c, f32out.Row(e))) {
				t.Fatalf("trial %d: f32 row %d of a %d-row product differs from the one-row product", trial, e, r)
			}
		}
	}
}

// TestWeightsMirrors pins the Weights cache contract: views are correct,
// cached (pointer-stable, no recompute between Touches), stale without
// Touch, and refreshed by it.
func TestWeightsMirrors(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := randMat(rng, 5, 7)
	w := NewWeights(m)
	if w.Mat() != m {
		t.Fatal("Mat() should alias the wrapped matrix")
	}

	tr := w.T()
	if !bitsEqual(tr, Transpose(m)) {
		t.Fatal("T() wrong on first access")
	}
	if w.T() != tr {
		t.Fatal("T() should be pointer-stable between Touches")
	}
	m32 := w.M32()
	for i, v := range m.Data {
		if m32.Data[i] != float32(v) {
			t.Fatalf("M32()[%d] = %v, want %v", i, m32.Data[i], float32(v))
		}
	}
	t32 := w.T32()
	want32 := New32(7, 5)
	Stage32(want32, Transpose(m))
	if !bitsEqual32(t32, want32) {
		t.Fatal("T32() disagrees with Stage32(Transpose(m))")
	}

	// Mutate without Touch: views must be stale (that is the contract the
	// nn mutation sites honor with explicit Touches).
	old := m.At(0, 0)
	m.Set(0, 0, old+42)
	if w.T().At(0, 0) != old {
		t.Fatal("T() recomputed without a Touch — cache is not generation-gated")
	}
	w.Touch()
	if w.T().At(0, 0) != old+42 {
		t.Fatal("T() stale after Touch")
	}
	if w.M32().At(0, 0) != float32(old+42) {
		t.Fatal("M32() stale after Touch")
	}
	if w.T32().At(0, 0) != float32(old+42) {
		t.Fatal("T32() stale after Touch")
	}

	// Steady state: view access after warm-up allocates nothing.
	allocs := testing.AllocsPerRun(100, func() {
		_ = w.T()
		_ = w.M32()
		_ = w.T32()
	})
	if allocs != 0 {
		t.Errorf("steady-state view access allocates %v times", allocs)
	}
}
