package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
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
		blobs := blobsOf(src)
		tc.damage(&blobs[len(blobs)-1])
		dst := NewMLP("m", []int{3, 8, 2}, rand.New(rand.NewSource(6)))
		before := blobsOf(dst)
		if err := Load(bytes.NewReader(encodeBlobs(t, blobs)), dst); err == nil {
			t.Fatalf("%s: load succeeded", tc.name)
		}
		if !sameBits(dst, before) {
			t.Fatalf("%s: a failed load changed the module", tc.name)
		}
	}
}

// TestMirrorFreshness pins that every weight mutation reaches the next
// forward: an optimizer step, SoftUpdate and Load each write the canonical
// weights the forward kernels read, with no derived copy in between, so
// the next forward must equal a fresh module's holding the same weights
// and differ from the pre-mutation output.
func TestMirrorFreshness(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	x := tensor.New(4, 10)
	x.RandUniform(rng, 1)
	l := NewLinear("lin", 10, 6, rand.New(rand.NewSource(4)))
	before := l.Forward(x).Clone()

	// One gradient step moves the weights; the next forward must see the
	// new values.
	dy := tensor.New(4, 6)
	dy.Fill(0.1)
	l.Backward(dy)
	opt := NewAdam(0.05)
	opt.Step(l)
	fresh := NewLinear("lin", 10, 6, rand.New(rand.NewSource(5)))
	CopyParams(fresh, l)
	want := fresh.Forward(x)
	got := l.Forward(x)
	if !tensor.Equal(got, want, 0) {
		t.Fatal("forward after optimizer step served stale weights")
	}
	if tensor.Equal(got, before, 0) {
		t.Fatal("optimizer step did not change the forward at all")
	}

	// SoftUpdate must also reach the destination's next forward.
	other := NewLinear("lin", 10, 6, rand.New(rand.NewSource(6)))
	_ = other.Forward(x)
	SoftUpdate(other, l, 0.5)
	check := NewLinear("lin", 10, 6, rand.New(rand.NewSource(7)))
	CopyParams(check, other)
	if !tensor.Equal(other.Forward(x), check.Forward(x), 0) {
		t.Fatal("forward after SoftUpdate served stale weights")
	}

	// So must Load: run a forward, load different weights, and the next
	// forward must equal the saved module's.
	src := NewLinear("lin", 10, 6, rand.New(rand.NewSource(8)))
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := NewLinear("lin", 10, 6, rand.New(rand.NewSource(9)))
	warm := dst.Forward(x).Clone()
	if err := Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	loaded := dst.Forward(x)
	if !tensor.Equal(loaded, src.Forward(x), 0) {
		t.Fatal("forward after Load served stale weights")
	}
	if tensor.Equal(loaded, warm, 0) {
		t.Fatal("Load did not change the forward at all")
	}
}

// blobsOf copies m's parameters into the records Save writes.
func blobsOf(m Module) []paramBlob {
	var blobs []paramBlob
	for _, p := range m.Params() {
		blobs = append(blobs, paramBlob{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols,
			Data: append([]float64(nil), p.W.Data...)})
	}
	return blobs
}

// encodeBlobs gob-encodes blobs as one checkpoint stream.
func encodeBlobs(t testing.TB, blobs []paramBlob) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(blobs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameBits reports whether m's parameters are bit-identical to the data
// of want, blob for blob.
func sameBits(m Module, want []paramBlob) bool {
	for i, p := range m.Params() {
		for j, v := range p.W.Data {
			if math.Float64bits(v) != math.Float64bits(want[i].Data[j]) {
				return false
			}
		}
	}
	return true
}

// f32Tag is the zero-sized leading blob with which earlier versions tagged
// a checkpoint trained under their float32 forward path.
var f32Tag = paramBlob{Name: "!backend:f32"}

// TestLoadRefusesF32Checkpoint checks that a checkpoint written by the
// float32 forward path of earlier versions — the parameters behind a
// leading "!backend:f32" tag blob — is refused by Load's ordinary count
// and name validation, with the module left untouched.
func TestLoadRefusesF32Checkpoint(t *testing.T) {
	src := NewLinear("lin", 5, 3, rand.New(rand.NewSource(8)))
	tagged := encodeBlobs(t, append([]paramBlob{f32Tag}, blobsOf(src)...))
	for _, tc := range []struct {
		name string
		dst  Module
		want string
	}{
		// The tag makes one blob more than the module has parameters.
		{"same architecture", NewLinear("lin", 5, 3, rand.New(rand.NewSource(9))), "count mismatch"},
		// A module with one parameter more meets the tag in slot 0.
		{"count coincides", NewLSTM("lin", 5, 3, rand.New(rand.NewSource(10))), "name mismatch"},
	} {
		before := blobsOf(tc.dst)
		err := Load(bytes.NewReader(tagged), tc.dst)
		if err == nil {
			t.Fatalf("%s: loading an f32-tagged checkpoint succeeded", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want a %s", tc.name, err, tc.want)
		}
		if !sameBits(tc.dst, before) {
			t.Fatalf("%s: a refused load changed the module", tc.name)
		}
	}
}

// FuzzLoad feeds the checkpoint decoder arbitrary bytes. Load must never
// panic; a failed Load must leave every parameter byte-identical; a
// successful Load must restore exactly the values in the stream.
func FuzzLoad(f *testing.F) {
	newModule := func() *Sequential { return NewMLP("m", []int{3, 4, 2}, rand.New(rand.NewSource(11))) }
	src := NewMLP("m", []int{3, 4, 2}, rand.New(rand.NewSource(12)))
	for _, seed := range [][]byte{
		encodeBlobs(f, blobsOf(src)),
		encodeBlobs(f, append([]paramBlob{f32Tag}, blobsOf(src)...)),
	} {
		f.Add(seed)
		for _, n := range []int{1, len(seed) / 3, len(seed) / 2, len(seed) - 1} {
			f.Add(seed[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newModule()
		before := blobsOf(m)
		if err := Load(bytes.NewReader(data), m); err != nil {
			if !sameBits(m, before) {
				t.Fatalf("failed load (%v) changed the module", err)
			}
			return
		}
		var saved []paramBlob
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&saved); err != nil {
			t.Fatalf("Load accepted a stream gob cannot decode: %v", err)
		}
		if !sameBits(m, saved) {
			t.Fatal("successful load did not restore the saved values")
		}
	})
}
