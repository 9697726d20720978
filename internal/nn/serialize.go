package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"strings"
)

// paramBlob is the wire format of one parameter.
type paramBlob struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

// backendSentinel is the Name prefix of the zero-sized pseudo-blob that
// tags a checkpoint with the non-default tensor backend it was trained
// under. f64 checkpoints carry no sentinel, so their bytes are identical
// to checkpoints written before backends existed (the golden tests pin
// this), and any pre-backend reader keeps loading them.
const backendSentinel = "!backend:"

// Save writes every parameter of m to w in a stable, self-describing
// format — the legacy f64 layout, byte-identical to pre-backend Save. Use
// Load with an identically constructed module to restore, or SaveTagged
// when the module was trained under a non-default backend.
func Save(w io.Writer, m Module) error {
	return SaveTagged(w, m, "f64")
}

// SaveTagged is Save with the training backend recorded in the stream.
// The default backend ("" or "f64") writes the untagged legacy format;
// any other backend prepends a sentinel blob naming it, which LoadTagged
// checks against the loader's backend.
func SaveTagged(w io.Writer, m Module, backend string) error {
	params := m.Params()
	blobs := make([]paramBlob, 0, len(params)+1)
	if backend != "" && backend != "f64" {
		blobs = append(blobs, paramBlob{Name: backendSentinel + backend})
	}
	for _, p := range params {
		blobs = append(blobs, paramBlob{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols, Data: p.W.Data})
	}
	if err := gob.NewEncoder(w).Encode(blobs); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// Load restores parameters previously written by Save into m. The module
// must have the same architecture (same parameter names and shapes in the
// same order) as the one that was saved, and the checkpoint must have been
// written for the default f64 backend — a tagged checkpoint fails with an
// error naming both backends.
func Load(r io.Reader, m Module) error {
	return LoadTagged(r, m, "f64")
}

// LoadTagged restores parameters into m after checking the checkpoint's
// recorded backend against the loader's. It is all-or-nothing: every
// blob's name, shape, length and finiteness is checked before any
// parameter is written. Weights are stored as float64
// regardless of backend, but a model trained under f32 forwards carries
// f32-shaped numerics; loading it under f64 (or vice versa) would silently
// shift every Table metric outside its tolerance fence, so the mismatch is
// an error instead.
func LoadTagged(r io.Reader, m Module, backend string) error {
	var blobs []paramBlob
	if err := gob.NewDecoder(r).Decode(&blobs); err != nil {
		return fmt.Errorf("nn: load: %w", err)
	}
	saved := "f64"
	if len(blobs) > 0 && strings.HasPrefix(blobs[0].Name, backendSentinel) {
		saved = strings.TrimPrefix(blobs[0].Name, backendSentinel)
		blobs = blobs[1:]
	}
	want := backend
	if want == "" {
		want = "f64"
	}
	if saved != want {
		return fmt.Errorf("nn: load: checkpoint was trained with the %s tensor backend and cannot load under the %s backend; rerun with -backend %s or retrain",
			saved, want, saved)
	}
	params := m.Params()
	if len(blobs) != len(params) {
		return fmt.Errorf("nn: load: parameter count mismatch: saved %d, module has %d",
			len(blobs), len(params))
	}
	// Validate every blob before copying any, so a bad checkpoint returns
	// an error with the module untouched instead of half overwritten.
	for i, p := range params {
		b := blobs[i]
		if b.Name != p.Name {
			return fmt.Errorf("nn: load: parameter %d name mismatch: saved %q, module has %q",
				i, b.Name, p.Name)
		}
		if b.Rows != p.W.Rows || b.Cols != p.W.Cols {
			return fmt.Errorf("nn: load: parameter %q shape mismatch: saved %dx%d, module has %dx%d",
				b.Name, b.Rows, b.Cols, p.W.Rows, p.W.Cols)
		}
		if len(b.Data) != len(p.W.Data) {
			return fmt.Errorf("nn: load: parameter %q data length mismatch", b.Name)
		}
		for j, v := range b.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: load: parameter %q element %d is %v", b.Name, j, v)
			}
		}
	}
	for i, p := range params {
		copy(p.W.Data, blobs[i].Data)
		p.Touch()
	}
	return nil
}
