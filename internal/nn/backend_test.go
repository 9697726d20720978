package nn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"head/internal/tensor"
)

func relErr(got, want *tensor.Matrix) float64 {
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

// TestBackendForwardParity runs the same Linear/LSTM/GAT weights under
// both backends: the f64 forward must be bit-identical to a never-touched
// layer (SetBackend(F64) is a no-op), the f32 forward must track it to
// float32-level relative error, and row e of a multi-row f32 forward must
// equal the one-row f32 forward of row e.
func TestBackendForwardParity(t *testing.T) {
	const rtol = 1e-4
	rng := rand.New(rand.NewSource(31))
	x := tensor.New(6, 12)
	x.RandUniform(rng, 1)

	// Linear
	base := NewLinear("lin", 12, 8, rand.New(rand.NewSource(1)))
	f64l := NewLinear("lin", 12, 8, rand.New(rand.NewSource(1)))
	f32l := NewLinear("lin", 12, 8, rand.New(rand.NewSource(1)))
	SetBackend(tensor.F64, f64l)
	SetBackend(tensor.F32, f32l)
	want := base.Forward(x)
	if got := f64l.Forward(x); !tensor.Equal(got, want, 0) {
		t.Fatal("Linear: explicit f64 backend diverges from default")
	}
	got32 := f32l.Forward(x)
	if e := relErr(got32, want); e == 0 || e > rtol {
		t.Fatalf("Linear: f32 forward rel err %g (want nonzero and < %g)", e, rtol)
	}
	rows32 := got32.Clone()
	for e := 0; e < x.Rows; e++ {
		if one := f32l.Forward(rowOf(x, e)); !tensor.Equal(one, rowOf(rows32, e), 0) {
			t.Fatalf("Linear: f32 row %d of a %d-row forward differs from the one-row forward", e, x.Rows)
		}
	}

	// LSTM over a short sequence
	seq := []*tensor.Matrix{x, x}
	baseLSTM := NewLSTM("lstm", 12, 7, rand.New(rand.NewSource(2)))
	f32LSTM := NewLSTM("lstm", 12, 7, rand.New(rand.NewSource(2)))
	SetBackend(tensor.F32, f32LSTM)
	hs := baseLSTM.Forward(seq)
	hs32 := f32LSTM.Forward(seq)
	if e := relErr(hs32[1], hs[1]); e == 0 || e > rtol {
		t.Fatalf("LSTM: f32 forward rel err %g (want nonzero and < %g)", e, rtol)
	}
	last32 := hs32[1].Clone()
	for e := 0; e < x.Rows; e++ {
		one := f32LSTM.Forward([]*tensor.Matrix{rowOf(x, e), rowOf(x, e)})
		if !tensor.Equal(one[1], rowOf(last32, e), 0) {
			t.Fatalf("LSTM: f32 row %d of a %d-row forward differs from the one-row forward", e, x.Rows)
		}
	}

	// GAT on a small graph
	nodes := tensor.New(5, 12)
	nodes.RandUniform(rng, 1)
	targets := []int{0, 2}
	neighbors := [][]int{{0, 1, 3}, {2, 4}}
	baseGAT := NewGAT("gat", 12, 6, 9, rand.New(rand.NewSource(3)))
	f32GAT := NewGAT("gat", 12, 6, 9, rand.New(rand.NewSource(3)))
	SetBackend(tensor.F32, f32GAT)
	wantG := baseGAT.Forward(nodes, targets, neighbors)
	gotG := f32GAT.Forward(nodes, targets, neighbors)
	if e := relErr(gotG, wantG); e == 0 || e > rtol {
		t.Fatalf("GAT: f32 forward rel err %g (want nonzero and < %g)", e, rtol)
	}
	// Share must carry the backend.
	shared := f32GAT.Share()
	gotS := shared.Forward(nodes, targets, neighbors)
	if !tensor.Equal(gotS, gotG, 0) {
		t.Fatal("GAT.Share dropped the backend: shared forward diverges")
	}
	sharedLSTM := f32LSTM.Share()
	hsS := sharedLSTM.Forward(seq)
	if !tensor.Equal(hsS[1], last32, 0) {
		t.Fatal("LSTM.Share dropped the backend: shared forward diverges")
	}
}

// TestMirrorFreshness pins the Touch discipline end to end: forwards read
// cached weight views, so an optimizer step (and CopyParams,
// SoftUpdate, Load) must invalidate them. A stale mirror would make the
// post-step forward reproduce the pre-step output.
func TestMirrorFreshness(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	x := tensor.New(4, 10)
	x.RandUniform(rng, 1)
	for _, be := range []tensor.Backend{tensor.F64, tensor.F32} {
		l := NewLinear("lin", 10, 6, rand.New(rand.NewSource(4)))
		SetBackend(be, l)
		before := l.Forward(x).Clone()

		// One gradient step moves the weights; the next forward must see
		// the new values through the cached views.
		dy := tensor.New(4, 6)
		dy.Fill(0.1)
		l.Backward(dy)
		opt := NewAdam(0.05)
		opt.Step(l)
		fresh := NewLinear("lin", 10, 6, rand.New(rand.NewSource(5)))
		CopyParams(fresh, l)
		SetBackend(be, fresh)
		want := fresh.Forward(x)
		got := l.Forward(x)
		if !tensor.Equal(got, want, 0) {
			t.Fatalf("%s: forward after optimizer step served a stale weight mirror", be.Name())
		}
		if tensor.Equal(got, before, 0) {
			t.Fatalf("%s: optimizer step did not change the forward at all", be.Name())
		}

		// SoftUpdate must also refresh the destination's views.
		other := NewLinear("lin", 10, 6, rand.New(rand.NewSource(6)))
		SetBackend(be, other)
		_ = other.Forward(x) // warm the mirror cache
		SoftUpdate(other, l, 0.5)
		check := NewLinear("lin", 10, 6, rand.New(rand.NewSource(7)))
		CopyParams(check, other)
		SetBackend(be, check)
		if !tensor.Equal(other.Forward(x), check.Forward(x), 0) {
			t.Fatalf("%s: forward after SoftUpdate served a stale weight mirror", be.Name())
		}
	}
}

// TestCheckpointBackendRoundTrip pins the cross-backend checkpoint
// contract: same-backend round trips restore exactly, mismatched loads
// fail with an error naming both backends, and f64-tagged bytes are
// identical to the legacy untagged format.
func TestCheckpointBackendRoundTrip(t *testing.T) {
	src := NewLinear("lin", 5, 3, rand.New(rand.NewSource(8)))

	var legacy, tagged64, tagged32 bytes.Buffer
	if err := Save(&legacy, src); err != nil {
		t.Fatal(err)
	}
	if err := SaveTagged(&tagged64, src, "f64"); err != nil {
		t.Fatal(err)
	}
	if err := SaveTagged(&tagged32, src, "f32"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes(), tagged64.Bytes()) {
		t.Fatal("SaveTagged(f64) bytes differ from legacy Save — golden checkpoints would break")
	}
	if bytes.Equal(legacy.Bytes(), tagged32.Bytes()) {
		t.Fatal("SaveTagged(f32) bytes identical to f64 — backend tag missing")
	}

	// Same-backend round trips.
	dst := NewLinear("lin", 5, 3, rand.New(rand.NewSource(9)))
	if err := Load(bytes.NewReader(legacy.Bytes()), dst); err != nil {
		t.Fatalf("legacy load: %v", err)
	}
	if !tensor.Equal(dst.Weight.W, src.Weight.W, 0) {
		t.Fatal("legacy round trip lost weights")
	}
	dst = NewLinear("lin", 5, 3, rand.New(rand.NewSource(9)))
	if err := LoadTagged(bytes.NewReader(tagged32.Bytes()), dst, "f32"); err != nil {
		t.Fatalf("f32 round trip: %v", err)
	}
	if !tensor.Equal(dst.Weight.W, src.Weight.W, 0) {
		t.Fatal("f32 round trip lost weights")
	}

	// Mismatches refuse with both backends named.
	for _, tc := range []struct {
		data []byte
		as   string
	}{
		{tagged32.Bytes(), "f64"},
		{tagged32.Bytes(), ""},
		{legacy.Bytes(), "f32"},
	} {
		err := LoadTagged(bytes.NewReader(tc.data), dst, tc.as)
		if err == nil {
			t.Fatalf("loading as %q should have failed", tc.as)
		}
		if !strings.Contains(err.Error(), "f32") || !strings.Contains(err.Error(), "f64") {
			t.Errorf("mismatch error should name both backends: %v", err)
		}
	}
	// Plain Load on an f32 checkpoint gets the same clear refusal.
	if err := Load(bytes.NewReader(tagged32.Bytes()), dst); err == nil {
		t.Fatal("Load of an f32-tagged checkpoint should fail")
	} else if !strings.Contains(err.Error(), "f32") {
		t.Errorf("Load mismatch error should name the saved backend: %v", err)
	}
}
