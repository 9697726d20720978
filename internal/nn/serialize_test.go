package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"head/internal/tensor"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := NewMLP("m", []int{3, 8, 2}, rng)
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := NewMLP("m", []int{3, 8, 2}, rand.New(rand.NewSource(99)))
	if err := Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 3)
	x.RandUniform(rng, 1)
	if !tensor.Equal(src.Forward(x), dst.Forward(x), 1e-15) {
		t.Error("loaded model disagrees with saved model")
	}
}

func TestLoadRejectsArchitectureMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := NewMLP("m", []int{3, 8, 2}, rng)
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	// Different shape.
	wrongShape := NewMLP("m", []int{3, 4, 2}, rng)
	if err := Load(bytes.NewReader(buf.Bytes()), wrongShape); err == nil {
		t.Error("expected shape mismatch error")
	}
	// Different names.
	wrongName := NewMLP("x", []int{3, 8, 2}, rng)
	if err := Load(bytes.NewReader(buf.Bytes()), wrongName); err == nil {
		t.Error("expected name mismatch error")
	}
	// Different parameter count.
	wrongCount := NewMLP("m", []int{3, 8, 8, 2}, rng)
	if err := Load(bytes.NewReader(buf.Bytes()), wrongCount); err == nil {
		t.Error("expected count mismatch error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP("m", []int{2, 2}, rng)
	if err := Load(bytes.NewReader([]byte("not a gob stream")), m); err == nil {
		t.Error("expected decode error")
	}
}

func TestSaveLoadLSTMAndGAT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lstm := NewLSTM("l", 3, 5, rng)
	gat := NewGAT("g", 4, 6, 3, rng)
	both := moduleList{lstm, gat}
	var buf bytes.Buffer
	if err := Save(&buf, both); err != nil {
		t.Fatal(err)
	}
	lstm2 := NewLSTM("l", 3, 5, rand.New(rand.NewSource(5)))
	gat2 := NewGAT("g", 4, 6, 3, rand.New(rand.NewSource(6)))
	if err := Load(&buf, moduleList{lstm2, gat2}); err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(lstm.Wx.W, lstm2.Wx.W, 0) || !tensor.Equal(gat.Phi2.W, gat2.Phi2.W, 0) {
		t.Error("weights not restored")
	}
}

// TestLoadAllOrNothing checks that a checkpoint whose last blob is bad —
// wrong shape, or a NaN — fails to load and leaves every parameter of the
// module byte-identical, instead of overwriting the parameters before it.
func TestLoadAllOrNothing(t *testing.T) {
	src := NewMLP("m", []int{3, 8, 2}, rand.New(rand.NewSource(5)))
	for _, tc := range []struct {
		name   string
		damage func(last *paramBlob)
	}{
		{"wrong shape", func(last *paramBlob) {
			last.Rows, last.Cols = last.Cols, last.Rows+1
			last.Data = make([]float64, last.Rows*last.Cols)
		}},
		{"NaN", func(last *paramBlob) { last.Data[len(last.Data)-1] = math.NaN() }},
	} {
		var blobs []paramBlob
		for _, p := range src.Params() {
			blobs = append(blobs, paramBlob{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols,
				Data: append([]float64(nil), p.W.Data...)})
		}
		tc.damage(&blobs[len(blobs)-1])
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(blobs); err != nil {
			t.Fatal(err)
		}

		dst := NewMLP("m", []int{3, 8, 2}, rand.New(rand.NewSource(6)))
		var before [][]float64
		for _, p := range dst.Params() {
			before = append(before, append([]float64(nil), p.W.Data...))
		}
		if err := Load(&buf, dst); err == nil {
			t.Fatalf("%s: load succeeded", tc.name)
		}
		for i, p := range dst.Params() {
			for j, v := range p.W.Data {
				if math.Float64bits(v) != math.Float64bits(before[i][j]) {
					t.Fatalf("%s: parameter %s element %d changed by a failed load", tc.name, p.Name, j)
				}
			}
		}
	}
}
